package core

import (
	"container/heap"

	"repro/internal/bdd"
)

// Incremental best-pair maintenance for the Figure 1 greedy loop.
//
// The seed implementation rescanned the full O(n²) pair table after
// every merge and invalidated stale entries by walking the whole cache
// map. Here the table is indexed (flat n×n arrays) and the best pair is
// kept in a min-heap keyed on (ratio, i, j): a merge of (i, j) bumps the
// invalidation stamp of the O(n) pairs touching i or j and rescores only
// the surviving row i. Stale heap entries are discarded lazily when
// popped (their stamp no longer matches the table). The tie-break on
// (ratio, then i, then j) reproduces exactly the winner the seed's
// lexicographic scan with strict improvement selected, so the two
// implementations are Ref-for-Ref identical.

// pairDenominator guards the BDDSize(X_i, X_j) denominator of the Figure
// 1 ratio against degeneracy. Constant conjuncts normally never reach a
// scorer (NewList normalizes them away), but a list built directly —
// or a size accounting that counts internal nodes only — can make the
// denominator collapse, and a zero here turns the ratio into NaN/Inf:
// NaN compares inconsistently, so the heap path and the rescan reference
// would silently pick different merges. All three scorers (sequential,
// parallel, rescan) must use this same guard to stay Ref-identical.
func pairDenominator(den int) int {
	if den < 1 {
		return 1
	}
	return den
}

// Test hooks: when non-nil, greedyMerge reports every scored pair and
// every applied merge. Used by regression tests to prove that merged or
// dropped indices are never rescored. The public counter surface is
// Options.Stats / Options.OnMerge; these stay as the pair-identity seam
// for white-box tests.
var (
	greedyScoreHook func(i, j int)
	greedyMergeHook func(i, j int)
)

// EvalStats accumulates effort counters for the Figure 1 greedy
// evaluation. All increments happen in greedyMerge.
type EvalStats struct {
	// PairsScored counts candidate conjunctions P_ij built and sized
	// (the initial table plus one row rescore per merge).
	PairsScored int

	// MergesApplied counts Figure 1 replacements performed.
	MergesApplied int

	// BudgetOverflow counts pairs whose conjunction overflowed the
	// PairBudgetFactor bound and were recorded as unmergeable.
	BudgetOverflow int

	// Rounds counts passes of the merge loop, including the final pass
	// that found no candidate under the threshold.
	Rounds int
}

// pairCand is one heap entry. stamp must match the table's current stamp
// for the entry to be valid; stale entries are skipped on pop.
type pairCand struct {
	ratio float64
	i, j  int32
	stamp int32
}

// candHeap is a min-heap on (ratio, i, j).
type candHeap []pairCand

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(a, b int) bool {
	if h[a].ratio != h[b].ratio {
		return h[a].ratio < h[b].ratio
	}
	if h[a].i != h[b].i {
		return h[a].i < h[b].i
	}
	return h[a].j < h[b].j
}
func (h candHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *candHeap) Push(x any)   { *h = append(*h, x.(pairCand)) }
func (h *candHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// greedyMerge runs the Figure 1 loop over cs (modified in place),
// building each candidate conjunction P_ij on m and caching the surviving
// ones in an indexed table so the winning merge needs no recomputation.
// Effort counters (opt.Stats) and merge notifications (opt.OnMerge) are
// emitted here.
func greedyMerge(m *bdd.Manager, cs []bdd.Ref, opt Options) List {
	threshold := opt.threshold()
	n := len(cs)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	live := n

	stamp := make([]int32, n*n) // stamp[i*n+j] (i < j) invalidates heap entries
	ref := make([]bdd.Ref, n*n) // ref[i*n+j] (i < j): last scored P_ij
	cands := make(candHeap, 0, n*n/2)

	score := func(pairs [][2]int) {
		if greedyScoreHook != nil {
			for _, p := range pairs {
				greedyScoreHook(p[0], p[1])
			}
		}
		if opt.Stats != nil {
			opt.Stats.PairsScored += len(pairs)
		}
		for _, p := range pairs {
			i, j := p[0], p[1]
			den := pairDenominator(m.SharedSize(cs[i], cs[j]))
			var pr bdd.Ref
			ok := true
			if opt.PairBudgetFactor > 0 {
				budget := int(opt.PairBudgetFactor*float64(den)) + 64
				pr, ok = m.AndBounded(cs[i], cs[j], budget)
			} else {
				pr = m.And(cs[i], cs[j])
			}
			if !ok {
				if opt.Stats != nil {
					opt.Stats.BudgetOverflow++
				}
				continue // unmergeable: conjunction overflowed the budget
			}
			ref[i*n+j] = pr
			heap.Push(&cands, pairCand{
				ratio: float64(m.Size(pr)) / float64(den),
				i:     int32(i),
				j:     int32(j),
				stamp: stamp[i*n+j],
			})
		}
	}

	// Initial table: every pair, lexicographic order (matching the
	// seed's first scan so bounded-And allocation behaviour lines up).
	all := make([][2]int, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			all = append(all, [2]int{i, j})
		}
	}
	score(all)

	row := make([][2]int, 0, n)
	for live >= 2 {
		m.CheckBudget() // merge rounds can spin on cached conjunctions
		if opt.Stats != nil {
			opt.Stats.Rounds++
		}
		// Pop the best still-valid candidate.
		bestI, bestJ := -1, -1
		var bestRatio float64
		for len(cands) > 0 {
			c := heap.Pop(&cands).(pairCand)
			i, j := int(c.i), int(c.j)
			if !alive[i] || !alive[j] || c.stamp != stamp[i*n+j] {
				continue // stale: an endpoint merged or dropped since scoring
			}
			bestI, bestJ, bestRatio = i, j, c.ratio
			break
		}
		if bestI < 0 || bestRatio > threshold {
			break
		}
		if greedyMergeHook != nil {
			greedyMergeHook(bestI, bestJ)
		}
		if opt.Stats != nil {
			opt.Stats.MergesApplied++
		}
		if opt.OnMerge != nil {
			opt.OnMerge(bestI, bestJ)
		}
		merged := ref[bestI*n+bestJ]
		cs[bestI] = merged
		alive[bestJ] = false
		live--
		if merged == bdd.Zero {
			return NewList(m, bdd.Zero)
		}
		// Invalidate every pair touching bestI or bestJ — O(n) stamp
		// bumps, not a table walk.
		for k := 0; k < n; k++ {
			if k != bestI {
				a, b := k, bestI
				if a > b {
					a, b = b, a
				}
				stamp[a*n+b]++
			}
			if k != bestJ {
				a, b := k, bestJ
				if a > b {
					a, b = b, a
				}
				stamp[a*n+b]++
			}
		}
		// Rescore the surviving row: only pairs involving the merged
		// conjunct changed.
		row = row[:0]
		for k := 0; k < n; k++ {
			if k == bestI || !alive[k] {
				continue
			}
			a, b := k, bestI
			if a > b {
				a, b = b, a
			}
			row = append(row, [2]int{a, b})
		}
		score(row)
	}

	out := cs[:0:0]
	for i, c := range cs {
		if alive[i] {
			out = append(out, c)
		}
	}
	return NewList(m, out...)
}
