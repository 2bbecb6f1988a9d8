package core

import (
	"math"

	"repro/internal/bdd"
)

// Best-pair selection for the Figure 1 greedy loop.
//
// P_ij and its ratio live in flat n×n tables. A merge of (i, j)
// rescores only the surviving row i; pairs touching j die with it. Each
// round scans the ratios in (i, j) order with strict improvement, which
// selects exactly the winner of the lexicographic full rescan kept in
// the tests (evaluateGreedyRescan), so the two are Ref-for-Ref
// identical.

// pairDenominator guards the BDDSize(X_i, X_j) denominator of the Figure
// 1 ratio against degeneracy. Constant conjuncts normally never reach a
// scorer (NewList normalizes them away), but a list built directly —
// or a size accounting that counts internal nodes only — can make the
// denominator collapse, and a zero here turns the ratio into NaN/Inf:
// NaN compares inconsistently, so the table scan and the rescan
// reference would silently pick different merges. Both scorers (the
// table scan and the test-only rescan reference) must use this same
// guard to stay Ref-identical.
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

// greedyMerge runs the Figure 1 loop over cs (modified in place),
// building each candidate conjunction P_ij on m and caching it in an
// indexed table so the winning merge needs no recomputation. Effort
// counters (opt.Stats) and merge notifications (opt.OnMerge) are
// emitted here.
func greedyMerge(m *bdd.Manager, cs []bdd.Ref, opt Options) List {
	threshold := opt.threshold()
	n := len(cs)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	live := n

	ref := make([]bdd.Ref, n*n)   // ref[i*n+j] (i < j): last scored P_ij
	ratio := make([]float64, n*n) // ratio[i*n+j]; +Inf when P_ij overflowed

	// scored counts a batch of pairs before score builds them, so an
	// aborted batch still reports its effort.
	scored := func(pairs int) {
		if opt.Stats != nil {
			opt.Stats.PairsScored += pairs
		}
	}
	score := func(i, j int) {
		if greedyScoreHook != nil {
			greedyScoreHook(i, j)
		}
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
			ratio[i*n+j] = math.Inf(1) // unmergeable: overflowed the budget
			return
		}
		ref[i*n+j] = pr
		ratio[i*n+j] = float64(m.Size(pr)) / float64(den)
	}

	// Initial table: every pair, lexicographic order (matching the
	// seed's first scan so bounded-And allocation behaviour lines up).
	scored(n * (n - 1) / 2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			score(i, j)
		}
	}

	for live >= 2 {
		m.CheckBudget() // merge rounds can spin on cached conjunctions
		if opt.Stats != nil {
			opt.Stats.Rounds++
		}
		bestI, bestJ := -1, -1
		bestRatio := math.Inf(1)
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if alive[j] && ratio[i*n+j] < bestRatio {
					bestI, bestJ, bestRatio = i, j, ratio[i*n+j]
				}
			}
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
		// Rescore the surviving row: only pairs involving the merged
		// conjunct changed.
		scored(live - 1)
		for k := 0; k < n; k++ {
			if k != bestI && alive[k] {
				score(min(k, bestI), max(k, bestI))
			}
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
