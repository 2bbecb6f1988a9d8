package verify

import (
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/resource"
)

// runCtx is the harness state shared with a running engine: the GC
// root list, the resolved resource budget, and the progress sink —
// iterations completed and the peak iterate statistics — that the
// harness reads back when the run aborts mid-operation, so Exhausted
// results report how far the run got (the partial numbers behind the
// paper's "Exceeded 60MB" rows).
//
// Engines report progress through Tick and Observe, name the values a
// collection must keep through Protect, and end with the verdicts
// violated, verified or exhausted, which attach the progress; the
// harness owns creation and Result finalization.
type runCtx struct {
	m       *bdd.Manager
	opt     Options
	budget  resource.Budget
	maxIter int
	roots   []bdd.Ref

	// Progress sink. Engines write via Tick/Observe; the verdict
	// builders read it.
	iterations int
	peak       int
	profile    []int

	// Observability sink. Engines write via the Phase timers, the
	// Termination/CoreOptions wiring, and EmitTermResolved; the harness
	// copies everything onto the Result after the run.
	term       core.TermStats
	eval       core.EvalStats
	phases     PhaseDurations
	trajectory []int
}

func newCtx(p Problem, opt Options, b resource.Budget) *runCtx {
	c := &runCtx{m: p.Machine.M, opt: opt, budget: b, maxIter: b.MaxIter(defaultMaxIter)}
	if opt.GCEvery > 0 {
		c.roots = p.Roots()
	}
	return c
}

// Protect adds r to the run's GC roots (when GC is enabled) and returns
// it. The list starts with the problem's roots and lives as long as the
// run, so a value stays live from its registration to the run's end.
func (c *runCtx) Protect(r bdd.Ref) bdd.Ref {
	if c.opt.GCEvery > 0 {
		c.roots = append(c.roots, r)
	}
	return r
}

// MaybeGC runs a collection at the configured cadence. GC time is
// attributed to PhaseGC centrally here, for every engine.
func (c *runCtx) MaybeGC(iteration int) {
	if c.opt.GCEvery > 0 && iteration > 0 && iteration%c.opt.GCEvery == 0 {
		stop := c.Phase(PhaseGC)
		c.m.GC(c.roots...)
		stop()
	}
}

// Observe records an iterate's shared node count and (for the implicit
// engines) per-conjunct profile, keeping the maximum seen and appending
// to the size trajectory. Engines call it once per iterate (including
// the initial one), which also emits the EventIteration events; results
// read the peak back via Peak and the trajectory via the Result.
func (c *runCtx) Observe(shared int, profile []int) {
	c.trajectory = append(c.trajectory, shared)
	if shared > c.peak {
		c.peak = shared
		if profile != nil {
			c.profile = append(c.profile[:0], profile...)
		}
	}
	if c.opt.Observer != nil {
		c.opt.Observer(Event{Kind: EventIteration, Iteration: &IterationEvent{
			Index: len(c.trajectory) - 1, SharedNodes: shared, Profile: profile}})
	}
}

// Phase starts timing the given phase and returns the stop function;
// call it exactly once. Engines bracket their image, policy, and
// termination sections with it:
//
//	stop := c.Phase(PhaseImage)
//	back := ma.BackImageList(g.Conjuncts)
//	stop()
func (c *runCtx) Phase(ph Phase) (stop func()) {
	start := time.Now()
	return func() { c.phases[ph] += time.Since(start) }
}

// Termination returns the Section III.B exact-test configuration wired
// to the run's TermStats sink. Engines that build a core.Termination
// must obtain it here so the counters reach the Result.
func (c *runCtx) Termination() core.Termination {
	return core.Termination{
		M:          c.m,
		Simplifier: c.opt.Core.Simplifier,
		VarChoice:  c.opt.TermVarChoice,
		SkipStep3:  c.opt.TermSkipStep3,
		Stats:      &c.term,
	}
}

// CoreOptions returns the run's policy options wired to the EvalStats
// sink and (when an Observer is installed) the EventMerge stream.
// Engines pass the result — not opt.Core directly — to the Section
// III.A entry points.
func (c *runCtx) CoreOptions() core.Options {
	copt := c.opt.Core
	copt.Stats, copt.OnMerge = &c.eval, nil
	if c.opt.Observer != nil {
		copt.OnMerge = func(i, j int) {
			c.opt.Observer(Event{Kind: EventMerge, Merge: &MergeEvent{Iteration: c.iterations, I: i, J: j}})
		}
	}
	return copt
}

// EmitTermResolved emits an EventTermResolved: the engine's convergence
// test resolved for the current iteration.
func (c *runCtx) EmitTermResolved(converged bool) {
	if c.opt.Observer != nil {
		c.opt.Observer(Event{Kind: EventTermResolved, Term: &TermEvent{
			Iteration: c.iterations, Converged: converged, Stats: c.term}})
	}
}

// Tick marks the start of iteration i and enforces the iteration cap
// and the wall/cancellation budget between image computations (the
// manager's own strided checks additionally bound a single runaway
// operation). When a bound is hit it returns the finished Exhausted
// result and true; engines return it as-is.
func (c *runCtx) Tick(i int) (Result, bool) {
	c.iterations = i
	if i >= c.maxIter {
		return c.exhausted(&resource.IterError{Limit: c.maxIter}), true
	}
	if err := c.budget.Err(); err != nil {
		return c.exhausted(err), true
	}
	return Result{}, false
}

// violated builds the Violated result for a shortest violating path of
// the given depth, found after the given number of images, with the
// peak iterate statistics observed so far. trace builds the
// counterexample; it runs only when the options ask for one.
func (c *runCtx) violated(iterations, depth int, trace func() *Trace) Result {
	res := Result{Outcome: Violated, Iterations: iterations, ViolationDepth: depth,
		PeakStateNodes: c.peak, PeakProfile: c.profile}
	if c.opt.WantTrace {
		res.Trace = trace()
	}
	return res
}

// verified builds the Verified result after the given number of images,
// with the peak iterate statistics.
func (c *runCtx) verified(iterations int) Result {
	return Result{Outcome: Verified, Iterations: iterations, PeakStateNodes: c.peak, PeakProfile: c.profile}
}

// exhausted builds an Exhausted result carrying the typed overrun error
// and the progress accumulated before it.
func (c *runCtx) exhausted(err error) Result {
	return Result{
		Outcome:        Exhausted,
		Err:            err,
		Why:            err.Error(),
		Iterations:     c.iterations,
		PeakStateNodes: c.peak,
		PeakProfile:    c.profile,
	}
}
