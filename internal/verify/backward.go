package verify

import (
	"repro/internal/core"
)

// runBackward is the conventional backward traversal of Section II.B:
// G_0 = G, G_{i+1} = G_0 ∧ BackImage(τ, G_i); a violation is S ⊄ G_i,
// and convergence of the G_i sequence means the property holds. The
// whole point of the implicit methods is that this engine must build the
// monolithic BDD for G and each G_i.
func runBackward(c *runCtx, p Problem, opt Options) Result {
	ma := p.Machine
	m := ma.M

	good := c.Protect(p.good())
	init := ma.Init()

	g := good
	layers := []core.List{core.NewList(m, g)}
	c.Observe(m.Size(g), nil)

	for i := 0; ; i++ {
		if !m.Implies(init, g) {
			return c.violated(i, i, func() *Trace { return traceFromLayers(ma, layers, init) })
		}
		if res, stop := c.Tick(i); stop {
			return res
		}

		stop := c.Phase(PhaseImage)
		gn := c.Protect(m.And(good, ma.BackImage(g)))
		stop()
		c.Observe(m.Size(gn), nil)
		conv := gn == g // canonical Ref equality: the fixpoint test is free
		c.EmitTermResolved(conv)
		if conv {
			return c.verified(i + 1)
		}
		g = gn
		layers = append(layers, core.NewList(m, g))
		c.MaybeGC(i)
	}
}
