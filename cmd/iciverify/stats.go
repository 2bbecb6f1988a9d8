package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/verify"
)

// printStats renders the -stats human summary: the per-phase wall-time
// breakdown, the exact termination test's counters, the greedy
// evaluation's counters, and the iterate size trajectory.
func printStats(w io.Writer, res verify.Result) {
	fmt.Fprintf(w, "phase times:   %s (attributed %.3fs of %.3fs)\n",
		res.PhaseDurations, res.PhaseDurations.Total().Seconds(), res.Elapsed.Seconds())
	ts := res.Term
	fmt.Fprintf(w, "termination:   %d taut calls (steps1-2 %d, step3 %d, single %d), %d shannon splits, max depth %d\n",
		ts.TautCalls, ts.StepResolved[0], ts.StepResolved[1], ts.StepResolved[2],
		ts.ShannonSplits, ts.MaxSplitDepth)
	es := res.Eval
	fmt.Fprintf(w, "evaluation:    %d pairs scored, %d merges, %d budget overflows, %d rounds\n",
		es.PairsScored, es.MergesApplied, es.BudgetOverflow, es.Rounds)
	if len(res.SizeTrajectory) > 0 {
		parts := make([]string, len(res.SizeTrajectory))
		for i, s := range res.SizeTrajectory {
			parts[i] = fmt.Sprint(s)
		}
		fmt.Fprintf(w, "iterate sizes: %s\n", strings.Join(parts, " "))
	}
}
