package core

import (
	"math"

	"repro/internal/bdd"
)

// evaluateGreedyRescan is the original (seed) implementation of Figure 1:
// a full O(n²) rescan of the pair table per merge, with an O(|table|)
// map walk to invalidate stale rows. It is retained verbatim as the
// reference implementation — tests assert that the incremental heap path
// reproduces its output Ref-for-Ref, and BenchmarkEvaluatePolicy
// measures it against that path.
func evaluateGreedyRescan(l List, opt Options) List {
	m := l.M
	cs := append([]bdd.Ref(nil), l.Conjuncts...)
	if len(cs) < 2 {
		return NewList(m, cs...)
	}
	threshold := opt.threshold()

	// Pairwise conjunction table. P[i][j] (i<j) caches X_i ∧ X_j, or
	// records that the conjunction overflowed the pair budget.
	// Invalidated rows/columns are recomputed after each replacement.
	type pairKey struct{ i, j int }
	type pairVal struct {
		p  bdd.Ref
		ok bool
	}
	pair := make(map[pairKey]pairVal)
	conj := func(i, j int) (bdd.Ref, bool) {
		if i > j {
			i, j = j, i
		}
		k := pairKey{i, j}
		if v, ok := pair[k]; ok {
			return v.p, v.ok
		}
		var v pairVal
		if opt.PairBudgetFactor > 0 {
			budget := int(opt.PairBudgetFactor*float64(pairDenominator(m.SharedSize(cs[i], cs[j])))) + 64
			v.p, v.ok = m.AndBounded(cs[i], cs[j], budget)
		} else {
			v.p, v.ok = m.And(cs[i], cs[j]), true
		}
		pair[k] = v
		return v.p, v.ok
	}

	alive := make([]bool, len(cs))
	for i := range alive {
		alive[i] = true
	}
	liveCount := len(cs)

	for liveCount >= 2 {
		bestI, bestJ := -1, -1
		bestRatio := math.Inf(1)
		for i := 0; i < len(cs); i++ {
			if !alive[i] {
				continue
			}
			for j := i + 1; j < len(cs); j++ {
				if !alive[j] {
					continue
				}
				p, ok := conj(i, j)
				if !ok {
					continue // conjunction overflowed the pair budget
				}
				ratio := float64(m.Size(p)) / float64(pairDenominator(m.SharedSize(cs[i], cs[j])))
				if ratio < bestRatio {
					bestRatio, bestI, bestJ = ratio, i, j
				}
			}
		}
		if bestI < 0 || bestRatio > threshold {
			break
		}
		// Replace X_i and X_j with their conjunction; drop X_j.
		merged, _ := conj(bestI, bestJ)
		cs[bestI] = merged
		alive[bestJ] = false
		liveCount--
		// Update P to reflect the modified conjunct list: every pair
		// involving bestI or bestJ is stale.
		for k := range pair {
			if k.i == bestI || k.j == bestI || k.i == bestJ || k.j == bestJ {
				delete(pair, k)
			}
		}
		if merged == bdd.Zero {
			return NewList(m, bdd.Zero)
		}
	}

	out := cs[:0:0]
	for i, c := range cs {
		if alive[i] {
			out = append(out, c)
		}
	}
	return NewList(m, out...)
}
