package fsm

import "repro/internal/bdd"

// The full backward chain — every part of the schedule, none skipped —
// kept here as the reference the production chain (preChain) must agree
// with Ref for Ref. Only PreRelational is covered: PreCompose never runs
// the chain.

func (ma *Machine) fullChain(acc bdd.Ref) bdd.Ref {
	m := ma.M
	for _, p := range ma.preTransition {
		acc = m.AndExists(acc, p.rel, p.quant)
		if acc == bdd.Zero {
			return bdd.Zero
		}
	}
	return acc
}

// FullPreImage is PreImage on the full chain.
func (ma *Machine) FullPreImage(z bdd.Ref) bdd.Ref {
	return ma.FullPreImageWithin(z, nil)
}

// FullBackImage is BackImage on the full chain.
func (ma *Machine) FullBackImage(z bdd.Ref) bdd.Ref {
	return ma.FullPreImage(z.Not()).Not()
}

// FullPreImageWithin is PreImageWithin on the full chain.
func (ma *Machine) FullPreImageWithin(z bdd.Ref, within []bdd.Ref) bdd.Ref {
	ma.mustBeSealed()
	m := ma.M
	acc := m.Rename(z, ma.cur, ma.next)
	acc = m.And(acc, ma.constraint)
	for _, w := range within {
		acc = m.And(acc, w)
		if acc == bdd.Zero {
			return bdd.Zero
		}
	}
	return ma.fullChain(m.Exists(acc, ma.preSeedQuant))
}
