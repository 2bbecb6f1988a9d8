package verify

import (
	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/fsm"
)

// PDR is the IC3/PDR engine run over the implicit-conjunction
// substrate. Its frame sequence F_0 .. F_k is exactly what the paper's
// core machinery represents natively: each frame is an implicitly
// conjoined list of clauses, relative-induction queries are the
// list-implication test of Section III.B, and frame maintenance
// (clause propagation, cross-simplification, greedy merging) reuses
// the Section III.A policy unchanged.
const PDR Method = "PDR"

func init() { RegisterFunc(PDR, runPDR) }

// pdrRun carries the engine state through one run. frames[0] is the
// initial-state list [init]; frames[i] for i >= 1 is a clause list
// over-approximating the states reachable in at most i steps. The
// frames are monotone (F_i ⊆ F_{i+1} as state sets) because every
// clause learned at level i is added to frames 1..i, and policy
// restructuring preserves each frame's conjunction exactly.
type pdrRun struct {
	c      *Ctx
	ma     *fsm.Machine
	m      *bdd.Manager
	init   bdd.Ref
	term   core.Termination
	copt   core.Options
	frames []core.List
}

// runPDR implements property-directed reachability:
//
//   - find a concrete state in F_k ∧ ¬P and block it by learning a
//     relatively inductive clause, recursing on concrete predecessors
//     when the relative-induction query fails (the obligation stack);
//   - generalize each learned clause by dropping cube literals while
//     it stays initiation-safe and relatively inductive;
//   - after level k is blocked, push clauses forward frame by frame and
//     declare the property verified when some F_i ≡ F_{i+1} (the exact
//     list-equality test — an equal frame is an inductive invariant).
//
// A counterexample is reported only when an obligation chain reaches an
// initial state; because every level below k is fully blocked first,
// the chain's length is the shortest violating path, matching the
// depth contract of the other engines.
func runPDR(c *Ctx, p Problem, opt Options) Result {
	ma := p.Machine
	m := ma.M

	init := ma.Init()
	goods := p.goodList()
	c.Protect(init)
	for _, g := range goods {
		c.Protect(g)
	}

	// Depth 0: an initial state may already violate the property.
	if s := pdrBadIn(m, init, goods); s != nil {
		res := Result{Outcome: Violated, Iterations: 0, ViolationDepth: 0}
		if opt.WantTrace {
			res.Trace = &Trace{States: [][]bool{s}}
		}
		return res
	}

	e := &pdrRun{
		c:    c,
		ma:   ma,
		m:    m,
		init: init,
		term: c.Termination(),
		copt: c.CoreOptions(),
		frames: []core.List{
			core.NewList(m, init), // F_0
			core.NewList(m),       // F_1 = true, to be strengthened
		},
	}
	c.Observe(e.frames[1].SharedSize(), e.frames[1].Sizes())

	for k := 1; ; k++ {
		if res, stop := c.Tick(k); stop {
			return res
		}

		// Blocking phase: empty F_k ∧ ¬P one concrete state at a time.
		for {
			bad := e.frameBad(k, goods)
			if bad == nil {
				break
			}
			chain, blocked := e.block(bad, k)
			if !blocked {
				peak, profile := c.Peak()
				res := Result{
					Outcome:        Violated,
					Iterations:     k,
					ViolationDepth: len(chain) - 1,
					PeakStateNodes: peak,
					PeakProfile:    profile,
				}
				if opt.WantTrace {
					res.Trace = e.traceFromChain(chain)
				}
				return res
			}
		}

		// Open F_{k+1}, push clauses forward, and look for a fixpoint.
		e.frames = append(e.frames, core.NewList(m))
		if e.propagate(k) {
			peak, profile := c.Peak()
			return Result{Outcome: Verified, Iterations: k, PeakStateNodes: peak, PeakProfile: profile}
		}
		c.Observe(e.frames[k].SharedSize(), e.frames[k].Sizes())
		c.MaybeGC(k)
	}
}

// pdrBadIn returns a concrete state of set violating some conjunct of
// the property, or nil when set ⇒ ∧goods.
func pdrBadIn(m *bdd.Manager, set bdd.Ref, goods []bdd.Ref) []bool {
	for _, g := range goods {
		if d := m.Diff(set, g); d != bdd.Zero {
			return m.SatAssignment(d)
		}
	}
	return nil
}

// frameBad returns a concrete state of F_k violating the property, or
// nil when the level is fully blocked. The frame's conjuncts are
// conjoined into the violation one at a time with an early Zero exit,
// so the monolithic frame BDD is built only on the (rare) path that
// actually yields a state.
func (e *pdrRun) frameBad(k int, goods []bdd.Ref) []bool {
	for _, g := range goods {
		acc := g.Not()
		for _, cj := range e.frames[k].Conjuncts {
			acc = e.m.And(acc, cj)
			if acc == bdd.Zero {
				break
			}
		}
		if acc != bdd.Zero {
			return e.m.SatAssignment(acc)
		}
	}
	return nil
}

// block removes the concrete state bad from frame ki by strengthening
// frames 1..ki with relatively inductive clauses. It reports blocked =
// false when an obligation chain reaches an initial state; the returned
// chain then lists the states of a real violating path, initial state
// first, bad last.
func (e *pdrRun) block(bad []bool, ki int) (chain [][]bool, blocked bool) {
	stack := [][]bool{bad} // stack[d] is the obligation at frame ki-d
	for len(stack) > 0 {
		d := len(stack) - 1
		i := ki - d
		s := stack[d]
		cube := stateCube(e.ma, s)

		if i == 0 || e.m.And(e.init, cube) != bdd.Zero {
			// The chain reached an initial state: a concrete violating
			// path exists, one transition per stack edge.
			chain = make([][]bool, len(stack))
			for j := range stack {
				chain[j] = stack[len(stack)-1-j]
			}
			return chain, false
		}

		if e.relativelyInductive(cube.Not(), i) {
			clause := e.generalize(s, i)
			e.addClause(clause, i)
			stack = stack[:d] // resolved; the parent is re-examined next
			continue
		}

		// ¬s is not inductive relative to F_{i-1}: some state of F_{i-1}
		// steps into s. Block that predecessor one frame down first.
		stop := e.c.Phase(PhaseImage)
		pred := e.ma.PreImageWithin(cube, e.frames[i-1].Conjuncts)
		stop()
		t := e.m.SatAssignment(pred)
		if t == nil {
			panic("verify: pdr: relative induction failed without a predecessor")
		}
		stack = append(stack, t)
	}
	return nil, true
}

// relativelyInductive reports whether the clause is inductive relative
// to F_{i-1}: F_{i-1} ∧ clause ∧ τ ⇒ clause'. The consecution query is
// the paper's list-implication test — the left-hand side stays an
// implicit conjunction, the right-hand side is the clause's BackImage.
func (e *pdrRun) relativelyInductive(clause bdd.Ref, i int) bool {
	stop := e.c.Phase(PhaseImage)
	back := e.ma.BackImage(clause)
	stop()
	lhs := core.NewList(e.m, append(append([]bdd.Ref(nil), e.frames[i-1].Conjuncts...), clause)...)
	stop = e.c.Phase(PhaseTerm)
	ok := e.term.ListImpliesRef(lhs, back)
	stop()
	return ok
}

// generalize widens the blocked state's cube by dropping literals while
// the negated cube stays initiation-safe (init ⇒ clause) and relatively
// inductive at frame i, so one learned clause blocks a whole face of
// the state space rather than a single state. At least one literal is
// always kept.
func (e *pdrRun) generalize(s []bool, i int) bdd.Ref {
	lits := make([]bdd.Lit, len(e.ma.CurVars()))
	for j, v := range e.ma.CurVars() {
		lits[j] = bdd.Lit{Var: v, Val: s[v]}
	}
	for j := 0; j < len(lits) && len(lits) > 1; {
		cand := make([]bdd.Lit, 0, len(lits)-1)
		cand = append(cand, lits[:j]...)
		cand = append(cand, lits[j+1:]...)
		cube := e.m.CubeRef(cand)
		if e.m.And(e.init, cube) != bdd.Zero || !e.relativelyInductive(cube.Not(), i) {
			j++
			continue
		}
		lits = cand // dropped; retry the same index, now the next literal
	}
	return e.m.CubeRef(lits).Not()
}

// addClause strengthens frames 1..i with the clause. Adding to every
// lower frame too keeps the frames monotone, which the shortest-path
// and convergence arguments both rely on.
func (e *pdrRun) addClause(clause bdd.Ref, i int) {
	e.c.Protect(clause)
	for j := 1; j <= i && j < len(e.frames); j++ {
		e.frames[j] = core.NewList(e.m,
			append(append([]bdd.Ref(nil), e.frames[j].Conjuncts...), clause)...)
	}
}

// propagate pushes clauses forward after level k is fully blocked — a
// conjunct of F_i moves into F_{i+1} when F_i ∧ τ ⇒ c' — then applies
// the Section III.A policy to each frame and reports whether some
// F_i ≡ F_{i+1}. An equal pair is an inductive invariant containing the
// initial states and excluding ¬P, so the property is verified.
func (e *pdrRun) propagate(k int) bool {
	for i := 1; i <= k; i++ {
		have := make(map[bdd.Ref]bool, len(e.frames[i+1].Conjuncts))
		for _, cj := range e.frames[i+1].Conjuncts {
			have[cj] = true
		}
		var pushed []bdd.Ref
		for _, cj := range e.frames[i].Conjuncts {
			if !have[cj] && e.relativelyInductive(cj, i+1) {
				pushed = append(pushed, cj)
			}
		}
		if len(pushed) > 0 {
			e.frames[i+1] = core.NewList(e.m,
				append(append([]bdd.Ref(nil), e.frames[i+1].Conjuncts...), pushed...)...)
		}
		stop := e.c.Phase(PhasePolicy)
		e.frames[i] = core.SimplifyAndEvaluate(e.frames[i], e.copt)
		stop()
		protectList(e.c, e.frames[i])
	}
	for i := 1; i <= k; i++ {
		stop := e.c.Phase(PhaseTerm)
		eq := core.FastListsEqual(e.frames[i], e.frames[i+1]) ||
			e.term.ListsEqual(e.frames[i], e.frames[i+1])
		stop()
		e.c.EmitTermResolved(eq)
		if eq {
			return true
		}
	}
	return false
}

// traceFromChain turns an obligation chain (initial state first) into a
// validated counterexample by choosing inputs realizing each recorded
// transition.
func (e *pdrRun) traceFromChain(chain [][]bool) *Trace {
	t := &Trace{States: chain}
	for i := 0; i+1 < len(chain); i++ {
		in, ok := e.ma.PickTransitionInto(chain[i], stateCube(e.ma, chain[i+1]))
		if !ok {
			panic("verify: pdr: no input realizes a recorded transition")
		}
		t.Inputs = append(t.Inputs, in)
	}
	return t
}
