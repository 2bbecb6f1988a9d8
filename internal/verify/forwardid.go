package verify

import (
	"repro/internal/bdd"
	"repro/internal/core"
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

	r := core.List{M: m, Conjuncts: []bdd.Ref{ma.Init()}}
	rings := [][]bdd.Ref{r.Conjuncts}
	c.Observe(r.SharedSize(), r.Sizes())

	for i := 0; ; i++ {
		if g := disjViolation(m, r.Conjuncts, goods); g >= 0 {
			return c.violated(i, i, func() *Trace { return traceFromRings(ma, rings, goods[g].Not()) })
		}
		if res, stop := c.Tick(i); stop {
			return res
		}

		// R_{i+1} = R_i ∨ Image(R_i), with Image distributed over the
		// disjuncts, then the dual Section III.A policy.
		stop := c.Phase(PhaseImage)
		next := append([]bdd.Ref(nil), r.Conjuncts...)
		for _, d := range r.Conjuncts {
			next = append(next, ma.Image(d))
		}
		stop()
		stop = c.Phase(PhasePolicy)
		rn := dualSimplifyAndEvaluate(m, next, copt)
		stop()
		protectList(c, rn)
		c.Observe(rn.SharedSize(), rn.Sizes())

		stop = c.Phase(PhaseTerm)
		conv := disjConverged(term, opt.Termination, r, rn)
		stop()
		c.EmitTermResolved(conv)
		if conv {
			return c.verified(i + 1)
		}
		r = rn
		rings = append(rings, r.Conjuncts)
		c.MaybeGC(i)
	}
}

// disjViolation returns the index of a property conjunct some reached
// state escapes, or -1.
func disjViolation(m *bdd.Manager, disjuncts, goods []bdd.Ref) int {
	for _, d := range disjuncts {
		for gi, g := range goods {
			if !m.Implies(d, g) {
				return gi
			}
		}
	}
	return -1
}

// negate complements every element: ∨ds = ¬∧negate(ds).
func negate(ds []bdd.Ref) []bdd.Ref {
	neg := make([]bdd.Ref, len(ds))
	for i, d := range ds {
		neg[i] = d.Not()
	}
	return neg
}

// dualSimplifyAndEvaluate applies the conjunction-list policy to the
// negated disjuncts: ∨d_i = ¬(∧¬d_i), and the policy preserves the
// conjunction it is given, hence the disjunction too. The result is
// the list of the new disjuncts.
func dualSimplifyAndEvaluate(m *bdd.Manager, disjuncts []bdd.Ref, opt core.Options) core.List {
	out := core.SimplifyAndEvaluate(core.NewList(m, negate(disjuncts)...), opt)
	switch {
	case out.IsFalse():
		// ∧¬d = false means the disjunction covers everything.
		return core.List{M: m, Conjuncts: []bdd.Ref{bdd.One}}
	case out.IsTrue():
		// Empty conjunction of negations: the disjunction is empty.
		return core.List{M: m, Conjuncts: []bdd.Ref{bdd.Zero}}
	}
	return core.List{M: m, Conjuncts: negate(out.Conjuncts)}
}

// disjConverged tests R_{i+1} ⊆ R_i for disjunct lists (the sequence
// grows monotonically, so one inclusion certifies the fixpoint):
// ∨X ⊆ ∨Y iff ∧¬Y ⇒ ∧¬X.
func disjConverged(term core.Termination, mode TerminationMode, r, rn core.List) bool {
	if mode == TermFast {
		return core.FastListsEqual(r, rn)
	}
	return term.ListImplies(core.List{M: r.M, Conjuncts: negate(r.Conjuncts)},
		core.List{M: r.M, Conjuncts: negate(rn.Conjuncts)})
}
