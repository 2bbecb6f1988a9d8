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

	g0 := append([]bdd.Ref(nil), p.goodList()...)
	g := append([]bdd.Ref(nil), g0...)

	layers := []core.List{{M: m, Conjuncts: append([]bdd.Ref(nil), g...)}}
	c.Observe(listStats(m, g))

	for i := 0; ; i++ {
		if vi := violatingConjunct(m, init, g); vi >= 0 {
			peak, profile := c.Peak()
			res := Result{
				Outcome:        Violated,
				Iterations:     i,
				ViolationDepth: i,
				PeakStateNodes: peak,
				PeakProfile:    profile,
			}
			if opt.WantTrace {
				res.Trace = traceFromLayers(ma, layers, init)
			}
			return res
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
		back := ma.BackImageList(g)
		gn := make([]bdd.Ref, len(g))
		for j := range g {
			gn[j] = m.And(g0[j], back[j])
		}
		stop()
		stop = c.Phase(PhasePolicy)
		core.CrossSimplifyPositional(m, gn, opt.Core.Simplifier)
		stop()
		for _, cj := range gn {
			c.Protect(cj)
		}

		c.Observe(listStats(m, gn))

		// Fast (inexact) termination test: positional Ref equality.
		same := true
		for j := range g {
			if gn[j] != g[j] {
				same = false
				break
			}
		}
		c.EmitTermResolved(same)
		if same {
			peak, profile := c.Peak()
			return Result{Outcome: Verified, Iterations: i + 1, PeakStateNodes: peak, PeakProfile: profile}
		}
		g = gn
		layers = append(layers, core.List{M: m, Conjuncts: append([]bdd.Ref(nil), g...)})
		c.MaybeGC(i)
	}
}

// violatingConjunct returns the index of a conjunct not containing init,
// or -1.
func violatingConjunct(m *bdd.Manager, init bdd.Ref, g []bdd.Ref) int {
	for i, c := range g {
		if !m.Implies(init, c) {
			return i
		}
	}
	return -1
}

// listStats returns the shared size and per-conjunct profile of a list.
func listStats(m *bdd.Manager, g []bdd.Ref) (int, []int) {
	if len(g) == 0 {
		return 1, nil
	}
	profile := make([]int, len(g))
	for i, c := range g {
		profile[i] = m.Size(c)
	}
	return m.SharedSize(g...), profile
}
