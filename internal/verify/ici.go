package verify

import (
	"errors"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/resource"
)

// runICI reconstructs the original implicitly conjoined invariants method
// of Hu & Dill (CAV 1993), the baseline this paper improves on:
//
//   - the property must be supplied as an implicit conjunction (the user
//     partition); with a singleton list the method degenerates to plain
//     backward traversal, as Section II.C notes;
//   - the list keeps a FIXED length and order: each iteration conjoins
//     the BackImage of conjunct j into position j together with G_0[j];
//   - conjuncts are cross-simplified in place;
//   - termination is the fast, inexact positional test.
func runICI(c *runCtx, p Problem, opt Options) Result {
	ma := p.Machine
	m := ma.M

	init := ma.Init()

	g0 := p.goodList()
	g := core.List{M: m, Conjuncts: g0}

	layers := []core.List{g}
	c.Observe(g.SharedSize(), g.Sizes())

	for i := 0; ; i++ {
		if !g.ContainsSet(init) {
			return c.violated(i, i, func() *Trace { return traceFromLayers(ma, layers, init) })
		}
		if res, stop := c.Tick(i); stop {
			if errors.Is(res.Err, resource.ErrIterLimit) {
				res.Why += " (fast termination test may have missed convergence)"
			}
			return res
		}

		// Positional step: G_{i+1}[j] = G_0[j] ∧ BackImage(τ, G_i[j]).
		// The conjunction over j equals G_0 ∧ BackImage(G_i) by
		// Theorem 1, whatever the pairing.
		stop := c.Phase(PhaseImage)
		back := ma.BackImageList(g.Conjuncts)
		gn := core.List{M: m, Conjuncts: make([]bdd.Ref, len(back))}
		for j := range back {
			gn.Conjuncts[j] = m.And(g0[j], back[j])
		}
		stop()
		stop = c.Phase(PhasePolicy)
		core.CrossSimplifyPositional(m, gn.Conjuncts, opt.Core.Simplifier)
		stop()
		protectList(c, gn)

		c.Observe(gn.SharedSize(), gn.Sizes())

		// Fast (inexact) termination test: positional Ref equality.
		same := core.FastListsEqual(g, gn)
		c.EmitTermResolved(same)
		if same {
			return c.verified(i + 1)
		}
		g = gn
		layers = append(layers, g)
		c.MaybeGC(i)
	}
}
