// Observability-layer tests: Result stats plumbing, the Observer event
// stream, and per-phase timers. In package verify_test because they
// build problems with internal/models, which imports verify.
package verify_test

import (
	"testing"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/resource"
	"repro/internal/verify"
)

// recorder collects a run's events by kind.
type recorder struct {
	iterations []verify.IterationEvent
	merges     []verify.MergeEvent
	terms      []verify.TermEvent
}

// observe is the recorder's Options.Observer.
func (r *recorder) observe(e verify.Event) {
	switch e.Kind {
	case verify.EventIteration:
		r.iterations = append(r.iterations, *e.Iteration)
	case verify.EventMerge:
		r.merges = append(r.merges, *e.Merge)
	case verify.EventTermResolved:
		r.terms = append(r.terms, *e.Term)
	}
}

// TestResultCarriesEffortStats: an XICI run under the default exact
// termination test must surface non-zero TermStats and EvalStats on the
// Result, a size trajectory whose maximum is the reported peak, and the
// bucket invariant on the termination counters.
func TestResultCarriesEffortStats(t *testing.T) {
	p := models.BuildFIFO(models.DefaultFIFO(3)).MustInstantiate(bdd.New())
	res := verify.Run(p, verify.XICI, verify.Options{})
	if res.Outcome != verify.Verified {
		t.Fatalf("outcome %v: %s", res.Outcome, res.Why)
	}
	if res.Term.TautCalls == 0 {
		t.Error("no tautology calls reported — TermStats not plumbed")
	}
	if res.Term.Resolved()+res.Term.ShannonSplits != res.Term.TautCalls {
		t.Errorf("bucket invariant broken: %+v", res.Term)
	}
	if res.Eval.PairsScored == 0 || res.Eval.Rounds == 0 {
		t.Errorf("no evaluation effort reported: %+v", res.Eval)
	}
	if len(res.SizeTrajectory) != res.Iterations+1 {
		t.Errorf("trajectory has %d entries for %d iterations", len(res.SizeTrajectory), res.Iterations)
	}
	max := 0
	for _, s := range res.SizeTrajectory {
		if s > max {
			max = s
		}
	}
	if max != res.PeakStateNodes {
		t.Errorf("trajectory max %d != peak %d", max, res.PeakStateNodes)
	}
	if res.PhaseDurations.Total() > res.Elapsed {
		t.Errorf("attributed phase time %v exceeds elapsed %v", res.PhaseDurations.Total(), res.Elapsed)
	}
}

// TestObserverEventStream: the Observer sees one iteration event per
// trajectory entry, exactly MergesApplied merge events, and at least
// one term_resolved event, the last of which reports convergence with
// the run's cumulative counters.
func TestObserverEventStream(t *testing.T) {
	p := models.BuildFIFO(models.DefaultFIFO(3)).MustInstantiate(bdd.New())
	rec := &recorder{}
	res := verify.Run(p, verify.XICI, verify.Options{Observer: rec.observe})
	if res.Outcome != verify.Verified {
		t.Fatalf("outcome %v: %s", res.Outcome, res.Why)
	}
	if len(rec.iterations) != len(res.SizeTrajectory) {
		t.Errorf("%d iteration events for %d trajectory entries",
			len(rec.iterations), len(res.SizeTrajectory))
	}
	for i, e := range rec.iterations {
		if e.Index != i || e.SharedNodes != res.SizeTrajectory[i] {
			t.Errorf("iteration event %d = %+v, want index %d size %d",
				i, e, i, res.SizeTrajectory[i])
		}
	}
	if len(rec.merges) != res.Eval.MergesApplied {
		t.Errorf("%d merge events for %d merges", len(rec.merges), res.Eval.MergesApplied)
	}
	if len(rec.terms) == 0 {
		t.Fatal("no term_resolved events")
	}
	last := rec.terms[len(rec.terms)-1]
	if !last.Converged {
		t.Error("final termination event did not report convergence")
	}
	if last.Stats != res.Term {
		t.Errorf("final term snapshot %+v != result %+v", last.Stats, res.Term)
	}
}

// TestObserverAllEngines: every engine must emit iteration and
// termination events on a problem it can decide.
func TestObserverAllEngines(t *testing.T) {
	for _, meth := range verify.Methods {
		p := models.BuildFIFO(models.DefaultFIFO(2)).MustInstantiate(bdd.New())
		rec := &recorder{}
		res := verify.Run(p, meth, verify.Options{Observer: rec.observe})
		if res.Outcome == verify.Exhausted && meth != verify.Induction {
			t.Errorf("%s: unexpected exhaustion: %s", meth, res.Why)
			continue
		}
		if len(rec.iterations) == 0 {
			t.Errorf("%s: no iteration events", meth)
		}
		if len(rec.terms) == 0 {
			t.Errorf("%s: no term_resolved events", meth)
		}
		if len(rec.iterations) != len(res.SizeTrajectory) {
			t.Errorf("%s: %d iteration events vs %d trajectory entries",
				meth, len(rec.iterations), len(res.SizeTrajectory))
		}
	}
}

// TestExhaustedKeepsPartialStats: a run aborted by the iteration cap
// still reports the effort spent before the abort.
func TestExhaustedKeepsPartialStats(t *testing.T) {
	p := models.BuildPipeline(models.PipelineConfig{Regs: 2, Width: 1, Assist: true}).MustInstantiate(bdd.New())
	res := verify.Run(p, verify.XICI, verify.Options{
		Budget: resource.Budget{MaxIterations: 2},
	})
	if res.Outcome != verify.Exhausted {
		t.Fatalf("outcome %v, want exhausted", res.Outcome)
	}
	if res.Term.TautCalls == 0 || res.Eval.PairsScored == 0 {
		t.Errorf("partial stats lost on abort: term %+v eval %+v", res.Term, res.Eval)
	}
	if len(res.SizeTrajectory) == 0 {
		t.Error("partial trajectory lost on abort")
	}
}

// TestStatsPerRunAcrossRuns is the regression test for the stats-reuse
// bug: a caller keeping one Options value across runs used to see the
// counters silently accumulate run over run, breaking the TermStats
// bucket invariant for any single run and turning MaxSplitDepth into a
// cross-run max. Each run must now report its own counters alone, and
// a caller-supplied Core.Stats sink is left alone: Result.Eval is the
// one place a run's greedy counters land.
func TestStatsPerRunAcrossRuns(t *testing.T) {
	m := bdd.New()
	p := models.BuildFIFO(models.DefaultFIFO(3)).MustInstantiate(m)
	var sink core.EvalStats
	opt := verify.Options{Core: core.Options{Stats: &sink}}

	first := verify.Run(p, verify.XICI, opt)
	if first.Outcome != verify.Verified {
		t.Fatalf("outcome %v: %s", first.Outcome, first.Why)
	}

	second := verify.Run(p, verify.XICI, opt)
	if second.Outcome != verify.Verified {
		t.Fatalf("second outcome %v: %s", second.Outcome, second.Why)
	}
	if second.Eval != first.Eval {
		t.Errorf("Eval accumulated across runs: first %+v, second %+v", first.Eval, second.Eval)
	}
	if second.Term != first.Term {
		t.Errorf("Term accumulated across runs: first %+v, second %+v", first.Term, second.Term)
	}
	if sink != (core.EvalStats{}) {
		t.Errorf("harness wrote to the caller's Core.Stats: %+v", sink)
	}
	for run, term := range map[string]core.TermStats{"first": first.Term, "second": second.Term} {
		if term.Resolved()+term.ShannonSplits != term.TautCalls {
			t.Errorf("%s run breaks the bucket invariant: %+v", run, term)
		}
	}
}

// TestTermSkipStep3Exact: the ablation knob must not change verdicts —
// the test stays exact with step 3 disabled, and no call may resolve in
// the step-3 bucket.
func TestTermSkipStep3Exact(t *testing.T) {
	base := verify.Run(models.BuildFIFO(models.DefaultFIFO(3)).MustInstantiate(bdd.New()), verify.XICI, verify.Options{})
	skip := verify.Run(models.BuildFIFO(models.DefaultFIFO(3)).MustInstantiate(bdd.New()), verify.XICI, verify.Options{TermSkipStep3: true})
	if base.Outcome != verify.Verified || skip.Outcome != verify.Verified {
		t.Fatalf("outcomes %v / %v, want verified", base.Outcome, skip.Outcome)
	}
	if skip.Iterations != base.Iterations {
		t.Errorf("SkipStep3 changed the verdict path: %d vs %d iterations", skip.Iterations, base.Iterations)
	}
	if skip.Term.StepResolved[1] != 0 {
		t.Errorf("step-3 bucket nonzero with SkipStep3: %+v", skip.Term)
	}
}
