package verify

import (
	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/fsm"
)

// ForwardID is the dual of the paper's method, from the Section II.A
// remark: "Dually, we can compute the Image and PreImage of implicit
// disjunctions without building the BDD for the entire disjunction."
// Forward reachability keeps R_i as an implicitly disjoined list of
// BDDs; Image distributes over the disjuncts, the violation check
// decomposes per disjunct × per property conjunct, and the Section III
// machinery applies verbatim to the negated list (∨d = ¬∧¬d): the
// evaluation policy merges disjuncts whose disjunction is cheap, and the
// exact termination test compares disjunction lists.
const ForwardID Method = "FwdID"

// runForwardID is the implicitly-disjoined forward traversal.
func runForwardID(c *runCtx, p Problem, opt Options) Result {
	ma := p.Machine
	m := ma.M

	goods := p.goodList()
	term := c.Termination()
	copt := c.CoreOptions()

	r := []bdd.Ref{ma.Init()}
	rings := [][]bdd.Ref{r}
	c.Observe(listStats(m, r))

	for i := 0; ; i++ {
		if d, g := disjViolation(m, r, goods); d >= 0 {
			peak, profile := c.Peak()
			res := Result{
				Outcome:        Violated,
				Iterations:     i,
				ViolationDepth: i,
				PeakStateNodes: peak,
				PeakProfile:    profile,
			}
			if opt.WantTrace {
				res.Trace = traceFromDisjRings(ma, rings, goods[g])
			}
			return res
		}
		if res, stop := c.Tick(i); stop {
			return res
		}

		// R_{i+1} = R_i ∨ Image(R_i), with Image distributed over the
		// disjuncts, then the dual Section III.A policy.
		stop := c.Phase(PhaseImage)
		next := append([]bdd.Ref(nil), r...)
		for _, d := range r {
			next = append(next, ma.Image(d))
		}
		stop()
		stop = c.Phase(PhasePolicy)
		rn := dualSimplifyAndEvaluate(m, next, copt)
		stop()
		for _, d := range rn {
			c.Protect(d)
		}
		c.Observe(listStats(m, rn))

		stop = c.Phase(PhaseTerm)
		conv := disjConverged(term, opt.Termination, r, rn)
		stop()
		c.EmitTermResolved(conv)
		if conv {
			peak, profile := c.Peak()
			return Result{Outcome: Verified, Iterations: i + 1, PeakStateNodes: peak, PeakProfile: profile}
		}
		r = rn
		rings = append(rings, r)
		c.MaybeGC(i)
	}
}

// disjViolation returns (disjunct index, good index) of a witness that
// some reached state escapes the property, or (-1, -1).
func disjViolation(m *bdd.Manager, disjuncts, goods []bdd.Ref) (int, int) {
	for di, d := range disjuncts {
		for gi, g := range goods {
			if !m.Implies(d, g) {
				return di, gi
			}
		}
	}
	return -1, -1
}

// dualSimplifyAndEvaluate applies the conjunction-list policy to the
// negated disjuncts: ∨d_i = ¬(∧¬d_i), and the policy preserves the
// conjunction it is given, hence the disjunction too.
func dualSimplifyAndEvaluate(m *bdd.Manager, disjuncts []bdd.Ref, opt core.Options) []bdd.Ref {
	neg := make([]bdd.Ref, len(disjuncts))
	for i, d := range disjuncts {
		neg[i] = d.Not()
	}
	out := core.SimplifyAndEvaluate(core.NewList(m, neg...), opt)
	if out.IsFalse() {
		// ∧¬d = false means the disjunction covers everything.
		return []bdd.Ref{bdd.One}
	}
	res := make([]bdd.Ref, len(out.Conjuncts))
	for i, c := range out.Conjuncts {
		res[i] = c.Not()
	}
	if len(res) == 0 {
		// Empty conjunction of negations: the disjunction is empty.
		return []bdd.Ref{bdd.Zero}
	}
	return res
}

// disjConverged tests R_{i+1} ⊆ R_i (the sequence grows monotonically,
// so one inclusion certifies the fixpoint): ∨X ⊆ ∨Y iff ∧¬Y ⇒ ∧¬X.
func disjConverged(term core.Termination, mode TerminationMode, r, rn []bdd.Ref) bool {
	if mode == TermFast {
		if len(r) != len(rn) {
			return false
		}
		for i := range r {
			if r[i] != rn[i] {
				return false
			}
		}
		return true
	}
	m := term.M
	negR := make([]bdd.Ref, len(r))
	for i, d := range r {
		negR[i] = d.Not()
	}
	negRn := make([]bdd.Ref, len(rn))
	for i, d := range rn {
		negRn[i] = d.Not()
	}
	return term.ListImplies(core.List{M: m, Conjuncts: negR}, core.List{M: m, Conjuncts: negRn})
}

// traceFromDisjRings reconstructs a counterexample from the disjunction
// onion rings: rings[i] is the list of disjuncts of R_i, and badGood is
// a property conjunct violated at the last ring.
func traceFromDisjRings(ma *fsm.Machine, rings [][]bdd.Ref, badGood bdd.Ref) *Trace {
	m := ma.M
	k := len(rings) - 1

	pickIn := func(ring []bdd.Ref, constraint bdd.Ref) []bool {
		for _, d := range ring {
			if set := m.And(d, constraint); set != bdd.Zero {
				return m.SatAssignment(set)
			}
		}
		return nil
	}

	states := make([][]bool, k+1)
	states[k] = pickIn(rings[k], badGood.Not())
	if states[k] == nil {
		panic("verify: traceFromDisjRings called without a violation")
	}
	target := stateCube(ma, states[k])
	for i := k - 1; i >= 0; i-- {
		states[i] = pickIn(rings[i], ma.PreImage(target))
		if states[i] == nil {
			panic("verify: disjunction onion-ring invariant broken")
		}
		target = stateCube(ma, states[i])
	}

	inputs := make([][]bool, k)
	for i := 0; i < k; i++ {
		in, ok := ma.PickTransitionInto(states[i], stateCube(ma, states[i+1]))
		if !ok {
			panic("verify: no input realizes a recorded transition")
		}
		inputs[i] = in
	}
	return &Trace{States: states, Inputs: inputs}
}
