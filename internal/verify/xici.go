package verify

import (
	"repro/internal/bdd"
	"repro/internal/core"
)

// runXICI is the paper's method: backward traversal over implicitly
// conjoined lists with
//
//   - the Section III.A evaluation & simplification policy applied to
//     every iterate (cross-simplification + the Figure 1 greedy
//     conjunction evaluation), which lets the engine start from a
//     monolithic property and derive the partition — the "assisting
//     invariants" — automatically; and
//   - the Section III.B exact termination test (or, optionally, the
//     single-implication variant exploiting monotonicity, or the old
//     fast test, for ablation).
//
// Each iteration computes G_{i+1} = G_0 ∧ BackImage(τ, G_i), where the
// BackImage of the list is the list of BackImages (Theorem 1) and G_0's
// conjuncts are appended rather than conjoined positionally — the policy
// decides what is worth evaluating.
func runXICI(c *runCtx, p Problem, opt Options) Result {
	ma := p.Machine
	m := ma.M

	init := ma.Init()

	term := c.Termination()
	copt := c.CoreOptions()

	g0 := append([]bdd.Ref(nil), p.goodList()...)

	stop := c.Phase(PhasePolicy)
	g := core.SimplifyAndEvaluate(core.NewList(m, g0...), copt)
	stop()
	protectList(c, g)
	layers := []core.List{g}
	c.Observe(g.SharedSize(), g.Sizes())

	for i := 0; ; i++ {
		if !g.ContainsSet(init) {
			return c.violated(i, i, func() *Trace { return traceFromLayers(ma, layers, init) })
		}
		if res, stop := c.Tick(i); stop {
			return res
		}

		// G_{i+1} = G_0 ∧ BackImage(G_i), kept implicit: append the
		// per-conjunct BackImages to G_0's conjuncts and let the policy
		// shorten the result.
		stop = c.Phase(PhaseImage)
		back := ma.BackImageList(g.Conjuncts)
		stop()
		gn := core.NewList(m, append(append([]bdd.Ref(nil), g0...), back...)...)
		stop = c.Phase(PhasePolicy)
		gn = core.SimplifyAndEvaluate(gn, copt)
		stop()
		protectList(c, gn)

		c.Observe(gn.SharedSize(), gn.Sizes())

		stop = c.Phase(PhaseTerm)
		conv := converged(term, opt.Termination, g, gn)
		stop()
		c.EmitTermResolved(conv)
		if conv {
			return c.verified(i + 1)
		}
		g = gn
		layers = append(layers, g)
		c.MaybeGC(i)
	}
}

// converged applies the selected termination test to successive iterates.
func converged(term core.Termination, mode TerminationMode, g, gn core.List) bool {
	switch mode {
	case TermImplication:
		// The G_i sequence is monotonically shrinking (G_{i+1} ⊆ G_i by
		// construction), so G_i ⇒ G_{i+1} alone certifies equality.
		return term.ListImplies(g, gn)
	case TermFast:
		return core.FastListsEqual(g, gn)
	default:
		return term.ListsEqual(g, gn)
	}
}

func protectList(c *runCtx, l core.List) {
	for _, cj := range l.Conjuncts {
		c.Protect(cj)
	}
}
