package core

import (
	"math"
	"math/bits"

	"repro/internal/bdd"
)

// Section III.A: the evaluation and simplification policy. Given a
// function expressed as an implicit conjunction X_1 ∧ … ∧ X_n, find an
// equivalent implicit conjunction with smaller overall size.

// DefaultGrowThreshold is the paper's GrowThreshold of 1.5: a pairwise
// conjunction is evaluated only while the best available ratio
// BDDSize(P_ij)/BDDSize(X_i, X_j) stays at or below this value. Values
// below 1 hold size down aggressively but get caught in local minima;
// values above 1 permit bounded growth to escape them (the paper notes
// any threshold > 1 could in theory let BDDs grow exponentially).
const DefaultGrowThreshold = 1.5

// Options configures the policy. The zero value selects the paper's
// settings (GrowThreshold 1.5, Restrict as the simplification operator).
type Options struct {
	// GrowThreshold is the greedy loop's exit ratio; 0 means
	// DefaultGrowThreshold.
	GrowThreshold float64

	// Simplifier selects Restrict (paper) or Constrain (ablation).
	Simplifier bdd.Simplifier

	// SkipSimplify disables the cross-simplification pass, leaving only
	// the greedy conjunction evaluation (ablation).
	SkipSimplify bool

	// SkipEvaluate disables the greedy conjunction evaluation, leaving
	// only cross-simplification (ablation).
	SkipEvaluate bool

	// PairBudgetFactor, when positive, bounds the construction of each
	// pairwise conjunction P_ij of Figure 1 at
	// factor × BDDSize(X_i, X_j) freshly allocated nodes — the
	// abort-on-size capability the paper's Section V asks for. A pair
	// whose conjunction overflows the bound can never have a useful
	// ratio, so it is recorded as unmergeable and skipped. Zero
	// disables the bound (the paper's baseline behaviour: every
	// pairwise conjunction is built in full).
	PairBudgetFactor float64

	// Stats, when non-nil, accumulates the greedy evaluation's effort
	// counters (see EvalStats). The counters are per run: the sink is
	// never reset here, so a sink reused across independent evaluations
	// must be zeroed between them (verify.RunContext does this for its
	// engines).
	Stats *EvalStats

	// OnMerge, when non-nil, is invoked for every merge the greedy loop
	// applies, with the conjunct indices (i, j) of the replaced pair
	// (j is dropped into i). It is the public form of the package's
	// white-box test hooks, used by the verify layer's Observer.
	OnMerge func(i, j int)
}

func (o Options) threshold() float64 {
	if o.GrowThreshold == 0 {
		return DefaultGrowThreshold
	}
	return o.GrowThreshold
}

// SimplifyAndEvaluate applies the full Section III.A policy to the list:
// cross-simplification with the selected operator, then the greedy
// pairwise evaluation of Figure 1. The input list is not modified.
func SimplifyAndEvaluate(l List, opt Options) List {
	out := l.Clone()
	out.Normalize()
	if out.IsFalse() || out.IsTrue() {
		return out
	}
	if !opt.SkipSimplify {
		out = CrossSimplify(out, opt.Simplifier)
		if out.IsFalse() || out.IsTrue() {
			return out
		}
	}
	if !opt.SkipEvaluate {
		out = EvaluateGreedy(out, opt)
	}
	return out
}

// CrossSimplify simplifies each conjunct by every other conjunct that is
// smaller than it ("Simplifying a small BDD by a large BDD, in our
// experience, does little good" — Section III.A). Each conjunct is a care
// set for the others: where any X_j is false the whole conjunction is
// false, so X_i may take arbitrary values there.
func CrossSimplify(l List, simp bdd.Simplifier) List {
	m := l.M
	cs := append([]bdd.Ref(nil), l.Conjuncts...)
	sizes := make([]int, len(cs))
	for i, c := range cs {
		sizes[i] = m.Size(c)
	}
	for i := range cs {
		m.CheckBudget() // simplification may shrink nodes and never alloc
		f := cs[i]
		for j := range cs {
			if i == j || sizes[j] >= sizes[i] {
				continue
			}
			f = m.Simplify(simp, f, cs[j])
			if f == bdd.Zero {
				return NewList(m, bdd.Zero)
			}
		}
		cs[i] = f
	}
	return NewList(m, cs...)
}

// CrossSimplifyPositional simplifies the conjuncts in place, preserving
// the length and order of the slice — the fixed-shape discipline of the
// original CAV'93 ICI method, whose fast termination test compares lists
// positionally. Updates are sequential (each simplification sees the
// current values of the other conjuncts), which keeps the conjunction
// semantics exact; see the soundness note in the termination test.
func CrossSimplifyPositional(m *bdd.Manager, cs []bdd.Ref, simp bdd.Simplifier) {
	for i := range cs {
		m.CheckBudget()
		f := cs[i]
		for j := range cs {
			if i == j || f.IsConst() {
				continue
			}
			if cs[j].IsConst() || m.Size(cs[j]) >= m.Size(f) {
				continue
			}
			f = m.Simplify(simp, f, cs[j])
		}
		cs[i] = f
	}
}

// EvaluateGreedy is the greedy algorithm of Figure 1: repeatedly replace
// the pair of conjuncts whose explicit conjunction gives the best
// size ratio, until the best remaining ratio exceeds GrowThreshold.
//
// The implementation maintains the best pair incrementally: an indexed
// pair table plus a min-heap keyed on (ratio, i, j), so each merge
// invalidates and rescores only the one affected row instead of
// rescanning the full O(n²) table. Candidate selection breaks ties on
// the smallest (i, j), which makes the result deterministic and equal to
// the historical full-rescan loop (kept in the tests as
// evaluateGreedyRescan for crosschecks and benchmarks).
func EvaluateGreedy(l List, opt Options) List {
	m := l.M
	cs := append([]bdd.Ref(nil), l.Conjuncts...)
	if len(cs) < 2 {
		return NewList(m, cs...)
	}
	return greedyMerge(m, cs, opt)
}

// OptimalPairwiseCover computes the exact minimum-cost cover of the
// conjuncts by singletons and pairs — the object of the paper's Theorem 2
// (there solved by minimum-weight matching; here, since lists are short,
// by exact dynamic programming over subsets). Costs are plain BDD sizes,
// which — as the paper points out — ignore node sharing; the function
// exists to quantify how much the greedy heuristic loses against the
// "optimum" (ablation study).
//
// It returns the groups (index sets of size 1 or 2) and the total cost.
// It panics if the list has more than 20 conjuncts.
func OptimalPairwiseCover(l List) (groups [][]int, cost int) {
	m := l.M
	n := len(l.Conjuncts)
	if n == 0 {
		return nil, 0
	}
	if n > 20 {
		panic("core: OptimalPairwiseCover limited to 20 conjuncts")
	}

	single := make([]int, n)
	for i, c := range l.Conjuncts {
		single[i] = m.Size(c)
	}
	pairCost := make([][]int, n)
	for i := range pairCost {
		pairCost[i] = make([]int, n)
		for j := i + 1; j < n; j++ {
			pairCost[i][j] = m.Size(m.And(l.Conjuncts[i], l.Conjuncts[j]))
		}
	}

	const inf = math.MaxInt / 2
	full := 1 << uint(n)
	dp := make([]int, full)
	choice := make([]int32, full) // encodes (i, j) of the chosen group; j == i for singleton
	for mask := 1; mask < full; mask++ {
		dp[mask] = inf
		i := lowestBit(mask)
		// Singleton {i}.
		if c := dp[mask&^(1<<uint(i))] + single[i]; c < dp[mask] {
			dp[mask] = c
			choice[mask] = int32(i)<<8 | int32(i)
		}
		// Pairs {i, j}.
		for j := i + 1; j < n; j++ {
			if mask&(1<<uint(j)) == 0 {
				continue
			}
			if c := dp[mask&^(1<<uint(i))&^(1<<uint(j))] + pairCost[i][j]; c < dp[mask] {
				dp[mask] = c
				choice[mask] = int32(i)<<8 | int32(j)
			}
		}
	}

	mask := full - 1
	for mask != 0 {
		ch := choice[mask]
		i, j := int(ch>>8), int(ch&0xff)
		if i == j {
			groups = append(groups, []int{i})
			mask &^= 1 << uint(i)
		} else {
			groups = append(groups, []int{i, j})
			mask &^= 1<<uint(i) | 1<<uint(j)
		}
	}
	return groups, dp[full-1]
}

func lowestBit(mask int) int {
	return bits.TrailingZeros(uint(mask))
}

// ApplyCover evaluates the conjunctions prescribed by a cover, returning
// the resulting shorter list.
func ApplyCover(l List, groups [][]int) List {
	m := l.M
	out := make([]bdd.Ref, 0, len(groups))
	for _, g := range groups {
		acc := bdd.One
		for _, idx := range g {
			acc = m.And(acc, l.Conjuncts[idx])
		}
		out = append(out, acc)
	}
	return NewList(m, out...)
}
