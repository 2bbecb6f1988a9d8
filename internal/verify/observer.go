package verify

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// Observability surface shared by every engine: per-phase wall-clock
// timers, the effort counters of the Section III machinery (TermStats /
// EvalStats), the per-iteration size trajectory, and an optional event
// sink (Observer). Engines report through the Ctx helpers; the harness
// copies the accumulated numbers onto the Result, so Exhausted runs keep
// the partial effort spent before the abort.

// Phase identifies one timed section of an engine's main loop.
type Phase int

const (
	// PhaseImage is image / pre-image / back-image computation.
	PhaseImage Phase = iota
	// PhasePolicy is the Section III.A evaluation & simplification.
	PhasePolicy
	// PhaseTerm is the convergence / termination test.
	PhaseTerm
	// PhaseGC is BDD garbage collection (timed centrally in MaybeGC).
	PhaseGC
	// NumPhases sizes PhaseDurations.
	NumPhases
)

func (ph Phase) String() string {
	switch ph {
	case PhaseImage:
		return "image"
	case PhasePolicy:
		return "policy"
	case PhaseTerm:
		return "termination"
	case PhaseGC:
		return "gc"
	default:
		return fmt.Sprintf("Phase(%d)", int(ph))
	}
}

// PhaseDurations accumulates wall-clock time per phase, indexed by
// Phase. Time spent outside any phase (violation checks, bookkeeping)
// is not attributed, so the sum is a lower bound on Result.Elapsed.
type PhaseDurations [NumPhases]time.Duration

// Total returns the attributed time across all phases.
func (pd PhaseDurations) Total() time.Duration {
	var t time.Duration
	for _, d := range pd {
		t += d
	}
	return t
}

// String renders the breakdown as "image 1.2s, policy 0.8s, ...".
func (pd PhaseDurations) String() string {
	s := ""
	for ph, d := range pd {
		if ph > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s %.3fs", Phase(ph), d.Seconds())
	}
	return s
}

// IterationEvent reports one iterate of the traversal sequence.
type IterationEvent struct {
	// Index is the iterate's position in the sequence: 0 is the initial
	// iterate (R_0 / G_0), k the result of the k-th image computation.
	Index int `json:"index"`

	// SharedNodes is the iterate's shared BDD node count.
	SharedNodes int `json:"shared_nodes"`

	// Profile is the per-conjunct size breakdown for the implicit
	// engines (nil for monolithic iterates).
	Profile []int `json:"profile,omitempty"`
}

// MergeEvent reports one merge applied by the Figure 1 greedy loop.
type MergeEvent struct {
	// Iteration is the engine iteration whose policy run applied the
	// merge (0 covers the initial policy application, before any image).
	Iteration int `json:"iteration"`

	// I, J are the conjunct indices of the replaced pair (J dropped
	// into I), relative to the list the policy was evaluating.
	I int `json:"i"`
	J int `json:"j"`
}

// TermEvent reports one resolution of the convergence test.
type TermEvent struct {
	// Iteration is the engine iteration whose convergence was tested.
	Iteration int `json:"iteration"`

	// Converged is the test's verdict.
	Converged bool `json:"converged"`

	// Stats is a snapshot of the run's cumulative exact-test counters
	// after this resolution (zero for engines using Ref-equality tests).
	Stats core.TermStats `json:"stats"`
}

// Observer receives progress events from a running engine. All eight
// registered engines report through it; a nil Options.Observer costs
// nothing. Callbacks run synchronously on the engine's goroutine — keep
// them cheap, and do not call back into the run's Manager.
type Observer interface {
	// OnIteration fires once per iterate, including the initial one.
	OnIteration(e IterationEvent)

	// OnMerge fires for every merge the evaluation policy applies.
	OnMerge(e MergeEvent)

	// OnTermResolved fires each time the engine's convergence test
	// returns, with the cumulative termination counters.
	OnTermResolved(e TermEvent)
}
