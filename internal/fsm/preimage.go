package fsm

import (
	"repro/internal/bdd"
)

// Relational-product implementation of PreImage/BackImage, using the
// conjunctively partitioned transition relation with early
// quantification. The machine's PreImageMode field picks the route:
// PreRelational (the default) runs this chain, PreCompose the
// functional composition of image.go. For machines with wide datapaths
// the composition route can explode in intermediate sizes; conjoining
// the per-bit relations one at a time and quantifying next-state/input
// variables as soon as they fall out of use is usually far better
// behaved.
//
// The chain skips every part the accumulator cannot touch. Part i
// conjoins rel_i = (next_i ≡ f_i) and quantifies quant_i, which always
// holds next_i, mentioned by no other part. If the accumulator mentions
// no variable of quant_i, then ∃quant_i. acc ∧ rel_i =
// acc ∧ ∃quant_i. (next_i ≡ f_i) = acc, because ∃next_i. (next_i ≡ f_i)
// = 1. The parts that do run see the same arguments as on the full
// chain, so every result is the same Ref and the skipped parts' nodes
// are never built.

// preImageRel computes ∃ next, inp. C ∧ ∧within ∧ ∧_i T_i ∧ Z[cur → next].
func (ma *Machine) preImageRel(z bdd.Ref, within []bdd.Ref) bdd.Ref {
	m := ma.M
	acc := m.Rename(z, ma.cur, ma.next)
	acc = m.And(acc, ma.constraint)
	for _, w := range within {
		acc = m.And(acc, w)
		if acc == bdd.Zero {
			return bdd.Zero
		}
	}
	return ma.preChain(m.Exists(acc, ma.preSeedQuant))
}

// preChain runs the backward schedule from its seed acc, skipping the
// parts acc cannot touch (see the file comment). acc's support is taken
// once; each part that runs drops its quant variables from that set and
// adds the rest of its relation's support, so the set only
// over-approximates the true support and a skip is always sound.
func (ma *Machine) preChain(acc bdd.Ref) bdd.Ref {
	m := ma.M
	live := make([]bool, m.NumVars())
	for _, v := range m.Support(acc) {
		live[v] = true
	}
	for i := range ma.preTransition {
		p := &ma.preTransition[i]
		if !anyLive(live, p.quantVars) {
			continue
		}
		acc = m.AndExists(acc, p.rel, p.quant)
		if acc == bdd.Zero {
			return bdd.Zero
		}
		for _, v := range p.quantVars {
			live[v] = false
		}
		for _, v := range p.restVars {
			live[v] = true
		}
	}
	return acc
}

func anyLive(live []bool, vs []bdd.Var) bool {
	for _, v := range vs {
		if live[v] {
			return true
		}
	}
	return false
}

// PreImageWithin returns PreImage(z) ∧ ∧within for a list of
// current-state-variable sets, conjoining the within conjuncts into the
// relational product before quantification instead of intersecting
// afterwards. This is the PDR predecessor query — "a state of F_{i-1}
// with a successor in the blocked cube" — where constraining early
// keeps the intermediate products small. The within conjuncts must
// mention current-state variables only: they then commute with the
// ∃next,inp quantification, so the result equals the late
// intersection by canonicity (on either PreImageMode).
func (ma *Machine) PreImageWithin(z bdd.Ref, within []bdd.Ref) bdd.Ref {
	ma.mustBeSealed()
	m := ma.M
	if ma.PreImageMode == PreRelational {
		return ma.preImageRel(z, within)
	}
	acc := m.And(ma.constraint, ma.sub.Compose(z))
	for _, w := range within {
		acc = m.And(acc, w)
		if acc == bdd.Zero {
			return bdd.Zero
		}
	}
	return m.Exists(acc, ma.inputCube)
}
