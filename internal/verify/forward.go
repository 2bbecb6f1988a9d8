package verify

import (
	"time"

	"repro/internal/bdd"
	"repro/internal/resource"
)

// runForward is the conventional forward traversal of Section II.B:
// R_0 = S, R_{i+1} = R_0 ∨ Image(τ, R_i); a violation is R_i ⊄ G, and
// convergence of the R_i sequence means the property holds.
func runForward(c *runCtx, p Problem, opt Options) Result {
	ma := p.Machine
	m := ma.M

	good := c.Protect(p.good())

	r := ma.Init()
	rings := [][]bdd.Ref{{r}}
	c.Observe(m.Size(r), nil)

	for i := 0; ; i++ {
		if !m.Implies(r, good) {
			return c.violated(i, i, func() *Trace { return traceFromRings(ma, rings, good.Not()) })
		}
		if res, stop := c.Tick(i); stop {
			return res
		}

		stop := c.Phase(PhaseImage)
		rn := c.Protect(m.Or(r, ma.Image(r)))
		stop()
		c.Observe(m.Size(rn), nil)
		conv := rn == r // canonical Ref equality: the fixpoint test is free
		c.EmitTermResolved(conv)
		if conv {
			return c.verified(i + 1)
		}
		r = rn
		rings = append(rings, []bdd.Ref{r})
		c.MaybeGC(i)
	}
}

// ReachableStates computes the reachable-state set by forward traversal,
// without checking any property — a utility for model debugging and for
// cross-validating engines in tests. It honors the budget's node limit,
// deadline, cancellation, and iteration cap.
func ReachableStates(p Problem, opt Options) (bdd.Ref, int, error) {
	ma := p.Machine
	m := ma.M
	b := opt.Budget.Start(time.Now())
	restore := m.ApplyBudget(b)
	defer restore()
	maxIter := b.MaxIter(defaultMaxIter)

	var reach bdd.Ref
	var iters int
	err := bdd.Guard(func() {
		r := ma.Init()
		for i := 0; ; i++ {
			if i >= maxIter {
				panic(&resource.IterError{Limit: maxIter})
			}
			if err := b.Err(); err != nil {
				panic(err)
			}
			rn := m.Or(r, ma.Image(r))
			if rn == r {
				reach, iters = r, i
				return
			}
			r = rn
		}
	})
	if err != nil {
		return bdd.Zero, 0, err
	}
	return reach, iters, nil
}
