// Package verify implements the verification paradigm of the paper's
// Section II — checking that every reachable state satisfies a property
// (AG p model checking) — with eight interchangeable engines. The
// paper's five:
//
//	Forward   conventional forward reachability ("Fwd" in the tables)
//	Backward  conventional backward traversal ("Bkwd")
//	ICI       the original implicitly conjoined invariants method of
//	          Hu & Dill, CAV 1993 (reconstruction): fixed user-supplied
//	          partition, positional conjoining, fast inexact termination
//	FD        forward traversal exploiting user-declared functional
//	          dependencies, Hu & Dill, DAC 1993 (reconstruction)
//	XICI      ICI extended with this paper's techniques: the Section
//	          III.A evaluation & simplification policy and the Section
//	          III.B exact termination test
//
// and three extensions, declared next to their implementations:
// ForwardID, Induction and PDR.
//
// All engines run under a node budget and report the statistics the
// paper's tables use: iterations to convergence, peak nodes of any
// iterate R_i/G_i (with the per-conjunct size breakdown for the implicit
// methods), estimated memory, and wall time.
package verify

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/resource"
)

// Method selects a verification engine.
type Method string

// The paper's five engines. ForwardID, Induction and PDR are declared
// next to their implementations.
const (
	Forward  Method = "Fwd"
	Backward Method = "Bkwd"
	ICI      Method = "ICI"
	XICI     Method = "XICI"
	FD       Method = "FD"
)

// Methods lists the engines, the paper's five in table order followed
// by the three extensions. Registered() lists the same names sorted.
var Methods = []Method{Forward, Backward, FD, ICI, XICI, ForwardID, Induction, PDR}

// TerminationMode selects how the implicit-conjunction engines detect
// convergence.
type TerminationMode int

const (
	// TermExact uses the Section III.B exact test, both implications.
	TermExact TerminationMode = iota
	// TermImplication exploits monotonicity of the G_i sequence and
	// checks the single implication G_i ⇒ G_{i+1} — the optimization the
	// paper mentions but leaves unimplemented.
	TermImplication
	// TermFast uses the inexact positional test of the original ICI
	// method (may fail to detect convergence, never falsely converges).
	TermFast
)

// Dependency declares, for the FD engine, that a state bit is a function
// of the other state bits on every reachable state. Def must mention only
// state variables that are not themselves declared dependent.
type Dependency struct {
	Var bdd.Var
	Def bdd.Ref
}

// Problem is one verification task: a machine and a safety property. The
// property may be supplied monolithically (Good), as a user partition
// (GoodList, the implicit conjunction the ICI method requires), or both.
type Problem struct {
	Machine *fsm.Machine

	// Good is the monolithic good-state set. If left at its zero value
	// (bdd.One, the trivially true property) while GoodList is set, the
	// monolithic engines derive it by conjoining GoodList.
	Good bdd.Ref

	// GoodList is the user-supplied partition of Good. Engines that
	// need a partition fall back to the singleton [Good] when absent —
	// which, as the paper notes, reduces ICI to plain backward traversal.
	GoodList []bdd.Ref

	// Deps are the functional dependencies for the FD engine.
	Deps []Dependency

	// Name labels the problem in reports.
	Name string
}

// good returns the monolithic property, deriving it from the partition
// when necessary. This is the potentially huge BDD the implicit methods
// refuse to build; only the monolithic engines call it.
func (p Problem) good() bdd.Ref {
	if p.Good == bdd.One && len(p.GoodList) > 0 {
		return p.Machine.M.AndN(p.GoodList...)
	}
	return p.Good
}

// goodList returns the property as a partition, falling back to the
// monolithic singleton.
func (p Problem) goodList() []bdd.Ref {
	if len(p.GoodList) > 0 {
		return p.GoodList
	}
	return []bdd.Ref{p.Good}
}

// Roots returns the problem's BDDs — the machine's functions, the
// property in both forms, and the dependency definitions — which every
// collection on the problem's manager must keep.
func (p Problem) Roots() []bdd.Ref {
	roots := append(p.Machine.Roots(), p.Good)
	roots = append(roots, p.GoodList...)
	for _, d := range p.Deps {
		roots = append(roots, d.Def)
	}
	return roots
}

// Options configures an engine run.
type Options struct {
	// Budget is the run's complete resource bound: node limit ("Exceeded
	// 60MB" rows), wall deadline ("Exceeded 40 minutes" rows), iteration
	// cap (0 = 100000), and cancellation context. The zero value is
	// unbounded. The harness installs it on the manager for the run's
	// duration — it is the single path by which limits, deadlines, and
	// cancellation reach the BDD layer.
	Budget resource.Budget

	// Core configures the XICI evaluation & simplification policy. The
	// harness sets its Stats and OnMerge itself: a run's greedy counters
	// land in Result.Eval and its merges reach Observer.
	Core core.Options

	// Termination selects the convergence test for ICI-family engines.
	Termination TerminationMode

	// TermVarChoice selects the Shannon-expansion variable heuristic of
	// the exact termination test (Section V tuning knob).
	TermVarChoice core.VarChoice

	// TermSkipStep3 disables step 3 (the pairwise-implication filter) of
	// the exact termination test — the Section V ablation knob. The test
	// stays exact; it only changes which step resolves each call.
	TermSkipStep3 bool

	// WantTrace requests a counterexample trace on violation.
	WantTrace bool

	// GCEvery triggers a garbage collection every n iterations
	// (0 = never). Each collection keeps the problem's roots and the
	// values the engine has registered during the run; the run frees
	// whatever else the manager holds, so a caller sharing the manager
	// with another problem must not enable it.
	GCEvery int

	// Observer, when non-nil, receives progress events as the run
	// unfolds, each stamped with the run's method: one EventIteration
	// per iterate, one EventMerge per policy merge, one
	// EventTermResolved per convergence test. Nil (the default) costs
	// nothing. It runs synchronously on the engine's goroutine: keep it
	// cheap, and do not call back into the run's Manager.
	Observer func(Event)
}

// defaultMaxIter is the traversal depth bound when the budget sets none.
const defaultMaxIter = 100000

// Outcome classifies how a run ended.
type Outcome int

const (
	// Verified: the property holds on all reachable states.
	Verified Outcome = iota
	// Violated: a reachable state breaks the property.
	Violated
	// Exhausted: the run hit the node budget, the timeout, or the
	// iteration bound before reaching a verdict.
	Exhausted
)

func (o Outcome) String() string {
	switch o {
	case Verified:
		return "verified"
	case Violated:
		return "violated"
	default:
		return "exhausted"
	}
}

// Result carries everything the paper's tables report, plus the
// counterexample trace when one was requested and found.
type Result struct {
	Problem string
	Method  Method
	Outcome Outcome

	// Iterations is the number of image computations performed before
	// the verdict ("Iter" in the tables): on success this includes the
	// final image whose fixpoint detection certified convergence; on
	// violation it is the length of the shortest violating path.
	Iterations int

	// PeakStateNodes is the largest shared node count of any iterate
	// R_i or G_i ("BDD Nodes").
	PeakStateNodes int

	// PeakProfile is the per-conjunct size breakdown at the peak
	// iterate, for the implicit-conjunction engines (the parenthesized
	// numbers in the tables).
	PeakProfile []int

	// MemBytes estimates the verifier's memory high-water mark ("Mem").
	MemBytes int

	// Elapsed is wall time for the run ("Time").
	Elapsed time.Duration

	// Term accumulates the Section III.B exact termination test's
	// effort counters across the run (zero for engines that never run
	// the exact test).
	Term core.TermStats

	// Eval accumulates the Section III.A greedy evaluation's effort
	// counters across the run.
	Eval core.EvalStats

	// PhaseDurations is the run's wall time attributed per engine phase
	// (image / policy / termination / GC). The sum is a lower bound on
	// Elapsed; unattributed time is loop bookkeeping.
	PhaseDurations PhaseDurations

	// SizeTrajectory is the shared node count of every iterate in
	// sequence order, index 0 being the initial iterate — the data
	// behind the paper's "BDD Nodes" growth discussion. Its maximum is
	// PeakStateNodes.
	SizeTrajectory []int

	// Why explains Exhausted outcomes (node limit, timeout, ...).
	Why string

	// Err is the typed resource error behind an Exhausted outcome, when
	// one exists: errors.Is-matchable against resource.ErrNodeLimit,
	// resource.ErrDeadline, resource.ErrIterLimit, or context.Canceled.
	// Nil for Verified/Violated and for algorithmic exhaustion (a
	// non-inductive property, an FD configuration error).
	Err error

	// ViolationDepth is the length of the shortest violating path found
	// (meaningful when Outcome == Violated).
	ViolationDepth int

	// Trace is the counterexample (when requested and Outcome ==
	// Violated). Forward and backward family engines both produce one.
	Trace *Trace
}

// String renders a result as one table row.
func (r Result) String() string {
	switch r.Outcome {
	case Exhausted:
		return fmt.Sprintf("%-5s %-10s %s", r.Method, r.Outcome, r.Why)
	case Violated:
		return fmt.Sprintf("%-5s violated at depth %d in %v", r.Method, r.ViolationDepth, r.Elapsed)
	default:
		return fmt.Sprintf("%-5s %v iter=%d mem=%dK nodes=%d %v",
			r.Method, r.Outcome, r.Iterations, r.MemBytes/1024, r.PeakStateNodes, r.Elapsed)
	}
}

// Cause classifies an Exhausted result's termination cause for reports:
// "node-limit", "deadline", "canceled", or "iteration-cap" when the run
// hit the corresponding budget bound, "other" for algorithmic
// exhaustion (a non-inductive property, an FD configuration error), and
// "" when the run did not exhaust at all.
func (r Result) Cause() string {
	if r.Outcome != Exhausted {
		return ""
	}
	switch {
	case errors.Is(r.Err, resource.ErrNodeLimit):
		return "node-limit"
	case errors.Is(r.Err, resource.ErrDeadline),
		errors.Is(r.Err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(r.Err, context.Canceled):
		return "canceled"
	case errors.Is(r.Err, resource.ErrIterLimit):
		return "iteration-cap"
	default:
		return "other"
	}
}

// Run executes one engine on one problem. The machine must be sealed.
// Resource overruns inside BDD operations are converted into an
// Exhausted result carrying the typed error and the statistics
// accumulated up to the abort; the manager remains usable afterwards.
// An unknown method panics.
func Run(p Problem, method Method, opt Options) Result {
	return RunContext(context.Background(), p, method, opt)
}

// RunContext is Run with an explicit cancellation context: canceling
// ctx aborts the run (including a single long image computation, via
// the manager's strided checks) with an Exhausted result whose Err
// matches context.Canceled. A context set on opt.Budget.Ctx takes
// precedence.
//
// RunContext is the single harness all engines run under. It looks
// the method up in the engine table, installs the budget on the
// manager, converts overrun panics via Guard, and finalizes the Result;
// engine code holds only the algorithm's core loop. Every run counts
// its effort in fresh sinks, so a caller reusing one Options value
// sees each run's counters alone.
func RunContext(ctx context.Context, p Problem, method Method, opt Options) Result {
	eng, ok := engines[method]
	if !ok {
		panic(fmt.Sprintf("verify: unknown method %q", method))
	}
	m := p.Machine.M

	start := time.Now()
	b := opt.Budget
	if b.Ctx == nil && ctx != context.Background() {
		b.Ctx = ctx
	}
	b = b.Norm().Start(start)
	restore := m.ApplyBudget(b)
	defer restore()

	if observe := opt.Observer; observe != nil {
		opt.Observer = func(e Event) { e.Method = string(method); observe(e) }
	}
	c := newCtx(p, opt, b)

	var res Result
	if err := b.Err(); err != nil {
		// Already past the deadline or canceled: uniform Exhausted
		// across all engines, without entering one.
		res = c.exhausted(err)
	} else if err := bdd.Guard(func() { res = eng(c, p, opt) }); err != nil {
		res = c.exhausted(err)
	}
	res.Problem = p.Name
	res.Method = method
	res.Elapsed = time.Since(start)
	res.MemBytes = m.MemEstimate()
	// Observability fields accumulate on the runCtx, so Exhausted runs
	// report the partial effort spent before the abort.
	res.Term = c.term
	res.Eval = c.eval
	res.PhaseDurations = c.phases
	res.SizeTrajectory = c.trajectory
	return res
}
