package verify

import (
	"repro/internal/core"
)

// Induction is the 1-step induction engine: a property P is verified if
// it holds initially and is closed under the transition relation
// (P ⊆ BackImage(τ, P)). Induction is sound but incomplete — a true
// property need not be inductive — so the engine has three outcomes:
//
//	Verified:  P is inductive (no traversal needed at all);
//	Violated:  an initial state breaks P (depth-0 counterexample);
//	Exhausted: P holds initially but is not inductive; a traversal
//	           engine is needed to decide it. Why explains this.
//
// With a partitioned property the inductive-step check decomposes per
// conjunct via Theorem 1 — the cheapest possible use of implicitly
// conjoined invariants: assisting invariants that make P inductive let
// this engine verify in a single image computation, the limiting case
// of the paper's iteration counts of 1.
const Induction Method = "Induction"

func runInduction(c *runCtx, p Problem, opt Options) Result {
	ma := p.Machine
	m := ma.M

	goods := core.List{M: m, Conjuncts: p.goodList()}
	init := ma.Init()

	// Base case.
	if !goods.ContainsSet(init) {
		return c.violated(0, 0, func() *Trace { return traceFromLayers(ma, []core.List{goods}, init) })
	}

	// Inductive step, per conjunct: P ∧ ¬BackImage(P_j) must be empty
	// for every conjunct P_j (P as an implicit conjunction never gets
	// built). The cross-simplified conjuncts keep the BackImages small.
	stop := c.Phase(PhasePolicy)
	simplified := core.CrossSimplify(goods, opt.Core.Simplifier)
	stop()
	c.Observe(simplified.SharedSize(), simplified.Sizes())

	term := c.Termination()
	for _, pj := range simplified.Conjuncts {
		stop = c.Phase(PhaseImage)
		back := ma.BackImage(pj)
		stop()
		// Check P ⇒ back without conjoining P: find a conjunct-wise
		// witness via the implicit test.
		stop = c.Phase(PhaseTerm)
		holds := term.ListImplies(simplified, core.NewList(m, back))
		stop()
		c.EmitTermResolved(holds)
		if !holds {
			return Result{
				Outcome:        Exhausted,
				Iterations:     1,
				PeakStateNodes: c.peak,
				PeakProfile:    c.profile,
				Why:            "property is not inductive; use a traversal engine (Fwd/Bkwd/XICI)",
			}
		}
	}
	return c.verified(1)
}
