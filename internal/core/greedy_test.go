package core

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
)

// optionsMatrix is the greedy-relevant slice of the option space.
func greedyOptionsMatrix() []Options {
	return []Options{
		{}, // paper defaults
		{GrowThreshold: 0.8},
		{GrowThreshold: 1.0},
		{GrowThreshold: 10},
		{PairBudgetFactor: 1.5},
		{PairBudgetFactor: 0.5, GrowThreshold: 3},
	}
}

func refsEqual(a, b List) bool {
	if len(a.Conjuncts) != len(b.Conjuncts) {
		return false
	}
	for i := range a.Conjuncts {
		if a.Conjuncts[i] != b.Conjuncts[i] {
			return false
		}
	}
	return true
}

// TestEvaluateGreedyMatchesRescan: the incremental (heap) path must be
// Ref-for-Ref identical to the seed's full-rescan loop, including under
// the pair budget (same manager, same operation order, same bounded-And
// allocation behaviour).
func TestEvaluateGreedyMatchesRescan(t *testing.T) {
	m := newM(t)
	rng := rand.New(rand.NewSource(91))
	for iter := 0; iter < 50; iter++ {
		l := randList(m, rng, 2+rng.Intn(7))
		for oi, opt := range greedyOptionsMatrix() {
			want := evaluateGreedyRescan(l, opt)
			got := EvaluateGreedy(l, opt)
			if !refsEqual(got, want) {
				t.Fatalf("iter %d opts[%d]: heap %v != rescan %v", iter, oi, got.Conjuncts, want.Conjuncts)
			}
		}
	}
}

// TestGreedyNeverRescoresDeadIndices is the regression test for the
// stale-pair invalidation fix: once an index is merged away, no pair
// involving it may ever be scored again, and the total scoring work is
// the initial table plus one row per merge — not a rescan.
func TestGreedyNeverRescoresDeadIndices(t *testing.T) {
	m := newM(t)
	rng := rand.New(rand.NewSource(95))

	var (
		dead    map[int]bool
		scored  int
		merges  int
		initial int
	)
	greedyScoreHook = func(i, j int) {
		scored++
		if dead[i] || dead[j] {
			t.Fatalf("scored pair (%d,%d) with a dead index", i, j)
		}
	}
	greedyMergeHook = func(i, j int) {
		merges++
		dead[j] = true
	}
	defer func() { greedyScoreHook, greedyMergeHook = nil, nil }()

	for iter := 0; iter < 20; iter++ {
		n := 3 + rng.Intn(6)
		l := randList(m, rng, n)
		n = l.Len() // normalization may shrink
		if n < 2 {
			continue
		}
		dead = map[int]bool{}
		scored, merges = 0, 0
		initial = n * (n - 1) / 2
		EvaluateGreedy(l, Options{GrowThreshold: 10})
		if scored > initial+merges*(n-1) {
			t.Fatalf("iter %d: scored %d pairs > initial %d + merges %d × row %d",
				iter, scored, initial, merges, n-1)
		}
	}
}

// TestEvaluateGreedyConstantConjuncts is the regression test for the
// guarded ratio denominator: a list built directly — bypassing the
// constant-stripping of NewList/Normalize — may carry One (or Zero, or
// duplicated constant) conjuncts into the scorers. The ratio must stay
// finite (no NaN/Inf from a degenerate BDDSize(X_i, X_j)), the heap path
// and the rescan reference must remain Ref-identical, and the
// represented conjunction must be preserved.
func TestEvaluateGreedyConstantConjuncts(t *testing.T) {
	m := newM(t)
	rng := rand.New(rand.NewSource(98))
	f := randList(m, rng, 3)
	if f.Len() < 2 {
		t.Fatal("setup: want at least two non-constant conjuncts")
	}
	a, b := f.Conjuncts[0], f.Conjuncts[1]

	lists := []List{
		{M: m, Conjuncts: []bdd.Ref{bdd.One, bdd.One}},
		{M: m, Conjuncts: []bdd.Ref{bdd.One, a}},
		{M: m, Conjuncts: []bdd.Ref{bdd.One, bdd.One, a, b}},
		{M: m, Conjuncts: []bdd.Ref{a, bdd.One, b, bdd.One}},
		{M: m, Conjuncts: []bdd.Ref{bdd.Zero, a, b}},
		{M: m, Conjuncts: []bdd.Ref{bdd.One, bdd.Zero}},
	}
	for li, l := range lists {
		want := l.M.AndN(l.Conjuncts...)
		for oi, opt := range greedyOptionsMatrix() {
			rescan := evaluateGreedyRescan(l, opt)
			heap := EvaluateGreedy(l, opt)
			if !refsEqual(heap, rescan) {
				t.Fatalf("list %d opts[%d]: heap %v != rescan %v", li, oi, heap.Conjuncts, rescan.Conjuncts)
			}
			if got := heap.Explicit(); got != want {
				t.Fatalf("list %d opts[%d]: semantics changed", li, oi)
			}
		}
	}
}

// TestEvaluateGreedyZeroCollapse: a merge producing Zero must collapse
// the list.
func TestEvaluateGreedyZeroCollapse(t *testing.T) {
	m := newM(t)
	x, y := m.VarRef(0), m.VarRef(1)
	// No two conjuncts are syntactic complements, but the conjunction is empty.
	l := NewList(m, m.Or(x, y), m.Or(x, y.Not()), m.Or(x.Not(), y), m.Or(x.Not(), y.Not()))
	if out := EvaluateGreedy(l, Options{GrowThreshold: 10}); !out.IsFalse() {
		t.Fatalf("empty conjunction not collapsed: %v", out)
	}
}

// TestEvaluateGreedyBudgetThresholdSemantics: the pair budget, alone
// and combined with a permissive threshold, never changes the
// represented conjunction.
func TestEvaluateGreedyBudgetThresholdSemantics(t *testing.T) {
	m := newM(t)
	rng := rand.New(rand.NewSource(93))
	for iter := 0; iter < 20; iter++ {
		l := randList(m, rng, 2+rng.Intn(6))
		want := l.Explicit()
		for _, opt := range []Options{
			{PairBudgetFactor: 1.5},
			{PairBudgetFactor: 0.5, GrowThreshold: 3},
		} {
			out := EvaluateGreedy(l, opt)
			if out.Explicit() != want {
				t.Fatalf("iter %d %+v: budget run changed semantics", iter, opt)
			}
		}
	}
}

// TestEvaluateGreedyEmptyList: the empty list takes the early exit and
// stays True (TestEvaluateGreedySingleton covers one conjunct).
func TestEvaluateGreedyEmptyList(t *testing.T) {
	if out := EvaluateGreedy(List{M: newM(t)}, Options{}); !out.IsTrue() {
		t.Fatal("empty list mangled")
	}
}

// TestEvaluateGreedyGuardsLimit: a node limit blown while scoring pairs
// surfaces as a *bdd.LimitError through Guard, the resource-abort
// contract the verify harness relies on.
func TestEvaluateGreedyGuardsLimit(t *testing.T) {
	m := bdd.New()
	m.NewVars("x", 16)
	rng := rand.New(rand.NewSource(96))
	cs := make([]bdd.Ref, 8)
	for i := range cs {
		// Dense functions over 16 vars: pair conjunctions need room.
		f := bdd.Zero
		for k := 0; k < 6; k++ {
			cube := bdd.One
			for v := 0; v < 16; v++ {
				switch rng.Intn(3) {
				case 0:
					cube = m.And(cube, m.VarRef(bdd.Var(v)))
				case 1:
					cube = m.And(cube, m.NVarRef(bdd.Var(v)))
				}
			}
			f = m.Or(f, cube)
		}
		cs[i] = f
	}
	l := NewList(m, cs...)
	// Leave room for a few fresh nodes only: the pair conjunctions of
	// dense functions need far more.
	m.SetNodeLimit(m.NumNodes() + 16)
	defer m.SetNodeLimit(0)
	err := bdd.Guard(func() {
		EvaluateGreedy(l, Options{})
	})
	if err == nil {
		t.Fatal("expected a limit error")
	}
	if _, ok := err.(*bdd.LimitError); !ok {
		t.Fatalf("got %T (%v), want *bdd.LimitError", err, err)
	}
}

// TestEvalStatsCounters: the public stats seam must agree with the
// white-box hooks (PairsScored counts exactly the hook-reported scoring
// calls, MergesApplied the hook-reported merges).
func TestEvalStatsCounters(t *testing.T) {
	m := newM(t)
	rng := rand.New(rand.NewSource(97))
	for iter := 0; iter < 20; iter++ {
		l := randList(m, rng, 2+rng.Intn(7))
		if l.Len() < 2 {
			continue
		}

		var hookScored, hookMerged int
		greedyScoreHook = func(int, int) { hookScored++ }
		greedyMergeHook = func(int, int) { hookMerged++ }
		seq := EvalStats{}
		var events [][2]int
		EvaluateGreedy(l, Options{GrowThreshold: 10, Stats: &seq,
			OnMerge: func(i, j int) { events = append(events, [2]int{i, j}) }})
		greedyScoreHook, greedyMergeHook = nil, nil

		if seq.PairsScored != hookScored || seq.MergesApplied != hookMerged {
			t.Fatalf("iter %d: stats (pairs=%d merges=%d) disagree with hooks (%d, %d)",
				iter, seq.PairsScored, seq.MergesApplied, hookScored, hookMerged)
		}
		if len(events) != seq.MergesApplied {
			t.Fatalf("iter %d: %d OnMerge events for %d merges", iter, len(events), seq.MergesApplied)
		}
		if seq.Rounds == 0 || seq.BudgetOverflow != 0 {
			t.Fatalf("iter %d: unexpected rounds=%d overflow=%d", iter, seq.Rounds, seq.BudgetOverflow)
		}
	}
}
