package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestConstants(t *testing.T) {
	m := newTestManager(t, 2)
	if One == Zero {
		t.Fatal("One == Zero")
	}
	if One.Not() != Zero || Zero.Not() != One {
		t.Fatal("complement of constants broken")
	}
	if !One.IsConst() || !Zero.IsConst() {
		t.Fatal("constants not IsConst")
	}
	if m.NumNodes() != 1 {
		t.Fatalf("fresh manager has %d nodes, want 1 (terminal)", m.NumNodes())
	}
}

func TestVarRefBasics(t *testing.T) {
	m := newTestManager(t, 3)
	x := m.VarRef(0)
	if x.IsConst() {
		t.Fatal("variable is constant")
	}
	if m.TopVar(x) != 0 {
		t.Fatalf("TopVar = %d, want 0", m.TopVar(x))
	}
	if m.Low(x) != Zero || m.High(x) != One {
		t.Fatal("variable cofactors wrong")
	}
	// Hash consing: same variable twice gives the same Ref.
	if m.VarRef(0) != x {
		t.Fatal("VarRef not canonical")
	}
	// Negation round-trips.
	if x.Not().Not() != x {
		t.Fatal("double negation not identity")
	}
	nx := m.NVarRef(0)
	if nx != x.Not() {
		t.Fatal("NVarRef != Not(VarRef)")
	}
	if m.Low(nx) != One || m.High(nx) != Zero {
		t.Fatal("negated variable cofactors wrong")
	}
	checkInv(t, m)
}

func TestVarRefUndeclared(t *testing.T) {
	m := newTestManager(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("VarRef of undeclared variable did not panic")
		}
	}()
	m.VarRef(5)
}

func TestMkReductionRules(t *testing.T) {
	m := newTestManager(t, 3)
	x := m.VarRef(0)
	// low == high collapses.
	if got := m.mk(0, x.Not(), x.Not()); got != x.Not() {
		t.Fatal("mk did not collapse equal children")
	}
	// Complemented then-edge is normalized away on every live node.
	a := m.And(m.VarRef(0), m.VarRef(1).Not())
	b := m.Or(a, m.VarRef(2))
	_ = b
	checkInv(t, m)
}

func TestConnectivesTruthTables(t *testing.T) {
	const n = 4
	m := newTestManager(t, n)
	rng := rand.New(rand.NewSource(1))
	tabs := randTables(rng, n, 24)
	for i, ta := range tabs {
		for _, tb := range tabs[:i+1] {
			fa := truthToBDD(m, n, ta)
			fb := truthToBDD(m, n, tb)
			cases := []struct {
				name string
				got  Ref
				want uint64
			}{
				{"And", m.And(fa, fb), ta & tb},
				{"Or", m.Or(fa, fb), ta | tb},
				{"Xor", m.Xor(fa, fb), ta ^ tb},
				{"Xnor", m.Xnor(fa, fb), ^(ta ^ tb) & tableMask(n)},
				{"Nand", m.Nand(fa, fb), ^(ta & tb) & tableMask(n)},
				{"Nor", m.Nor(fa, fb), ^(ta | tb) & tableMask(n)},
				{"Imp", m.Imp(fa, fb), (^ta | tb) & tableMask(n)},
				{"Diff", m.Diff(fa, fb), ta &^ tb},
				{"Not", fa.Not(), ^ta & tableMask(n)},
			}
			for _, c := range cases {
				if got := bddToTruth(m, c.got, n); got != c.want {
					t.Fatalf("%s(%#x,%#x) = %#x, want %#x", c.name, ta, tb, got, c.want)
				}
			}
		}
	}
	checkInv(t, m)
}

func TestITETruthTables(t *testing.T) {
	const n = 3
	m := newTestManager(t, n)
	rng := rand.New(rand.NewSource(2))
	tabs := randTables(rng, n, 12)
	for _, tf := range tabs {
		for _, tg := range tabs[:6] {
			for _, th := range tabs[6:] {
				f := truthToBDD(m, n, tf)
				g := truthToBDD(m, n, tg)
				h := truthToBDD(m, n, th)
				want := (tf & tg) | (^tf & th)
				want &= tableMask(n)
				if got := bddToTruth(m, m.ITE(f, g, h), n); got != want {
					t.Fatalf("ITE(%#x,%#x,%#x) = %#x, want %#x", tf, tg, th, got, want)
				}
			}
		}
	}
	checkInv(t, m)
}

// TestCanonicity is the core property: equal truth tables must yield the
// identical Ref regardless of how the function was constructed.
func TestCanonicity(t *testing.T) {
	const n = 5
	m := newTestManager(t, n)
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		tbl := rng.Uint64() & tableMask(n)
		direct := truthToBDD(m, n, tbl)

		// Rebuild via a random balanced Shore-expansion on a random var.
		v := rng.Intn(n)
		x := m.VarRef(Var(v))
		lo := truthToBDD(m, n, tbl) // same function
		viaITE := m.ITE(x, m.And(lo, x), m.And(lo, x.Not()))
		// ITE(x, f∧x, f∧¬x) == f∧x ∨ f∧¬x == f
		if viaITE != direct {
			t.Fatalf("canonicity violated for table %#x", tbl)
		}
		// De Morgan round trip.
		other := rng.Uint64() & tableMask(n)
		g := truthToBDD(m, n, other)
		if m.And(direct, g) != m.Or(direct.Not(), g.Not()).Not() {
			t.Fatalf("De Morgan violated for %#x,%#x", tbl, other)
		}
	}
	checkInv(t, m)
}

func TestImplies(t *testing.T) {
	const n = 4
	m := newTestManager(t, n)
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 100; iter++ {
		ta := rng.Uint64() & tableMask(n)
		tb := rng.Uint64() & tableMask(n)
		fa := truthToBDD(m, n, ta)
		fb := truthToBDD(m, n, tb)
		want := ta&^tb == 0
		if got := m.Implies(fa, fb); got != want {
			t.Fatalf("Implies(%#x,%#x) = %v, want %v", ta, tb, got, want)
		}
		// f implies f∨g, f∧g implies f.
		if !m.Implies(fa, m.Or(fa, fb)) || !m.Implies(m.And(fa, fb), fa) {
			t.Fatal("basic implication laws violated")
		}
	}
}

func TestAndNOrN(t *testing.T) {
	const n = 4
	m := newTestManager(t, n)
	rng := rand.New(rand.NewSource(5))
	if m.AndN() != One || m.OrN() != Zero {
		t.Fatal("empty fold identities wrong")
	}
	tabs := randTables(rng, n, 5)
	fs := make([]Ref, len(tabs))
	wantAnd := tableMask(n)
	wantOr := uint64(0)
	for i, tb := range tabs {
		fs[i] = truthToBDD(m, n, tb)
		wantAnd &= tb
		wantOr |= tb
	}
	if got := bddToTruth(m, m.AndN(fs...), n); got != wantAnd {
		t.Fatalf("AndN = %#x, want %#x", got, wantAnd)
	}
	if got := bddToTruth(m, m.OrN(fs...), n); got != wantOr {
		t.Fatalf("OrN = %#x, want %#x", got, wantOr)
	}
}

// TestQuickBooleanAlgebra drives randomized algebraic laws through
// testing/quick.
func TestQuickBooleanAlgebra(t *testing.T) {
	const n = 5
	m := newTestManager(t, n)
	mask := tableMask(n)
	law := func(ta, tb, tc uint64) bool {
		ta, tb, tc = ta&mask, tb&mask, tc&mask
		a := truthToBDD(m, n, ta)
		b := truthToBDD(m, n, tb)
		c := truthToBDD(m, n, tc)
		// Distributivity.
		if m.And(a, m.Or(b, c)) != m.Or(m.And(a, b), m.And(a, c)) {
			return false
		}
		// Absorption.
		if m.Or(a, m.And(a, b)) != a {
			return false
		}
		// Complementation.
		if m.And(a, a.Not()) != Zero || m.Or(a, a.Not()) != One {
			return false
		}
		// Associativity via canonical refs.
		if m.Xor(m.Xor(a, b), c) != m.Xor(a, m.Xor(b, c)) {
			return false
		}
		// ITE consensus: ITE(a,b,c) == (a∧b)∨(¬a∧c).
		return m.ITE(a, b, c) == m.Or(m.And(a, b), m.And(a.Not(), c))
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	checkInv(t, m)
}

func TestNodeLimit(t *testing.T) {
	m := newTestManager(t, 20)
	m.nodeLimit = 30
	err := Guard(func() {
		acc := One
		for i := 0; i < 20; i++ {
			// Parity function grows linearly but with 20 vars it must
			// cross the 30-node budget.
			acc = m.Xor(acc, m.VarRef(Var(i)))
		}
	})
	if err == nil {
		t.Fatal("expected LimitError")
	}
	le, ok := err.(*LimitError)
	if !ok {
		t.Fatalf("got %T, want *LimitError", err)
	}
	if le.Limit != 30 {
		t.Fatalf("LimitError.Limit = %d, want 30", le.Limit)
	}
	if le.Error() == "" {
		t.Fatal("empty error message")
	}
	// Manager must remain usable after the abort.
	m.nodeLimit = 0
	x := m.And(m.VarRef(0), m.VarRef(1))
	if x == Zero || x == One {
		t.Fatal("manager unusable after limit abort")
	}
	checkInv(t, m)
}

func TestGuardPassesThroughOtherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Guard swallowed a non-limit panic")
		}
	}()
	_ = Guard(func() { panic("boom") })
}

func TestStatsAndMemEstimate(t *testing.T) {
	m := newTestManager(t, 8)
	for i := 0; i < 7; i++ {
		m.And(m.VarRef(Var(i)), m.VarRef(Var(i+1)))
	}
	s := m.Stats()
	if s.Nodes < 9 {
		t.Fatalf("expected at least 9 live nodes, got %d", s.Nodes)
	}
	if s.Vars != 8 {
		t.Fatalf("Stats.Vars = %d, want 8", s.Vars)
	}
	if s.CacheLookups == 0 {
		t.Fatal("no cache lookups recorded")
	}
	if m.MemEstimate() <= 0 {
		t.Fatal("MemEstimate not positive")
	}
	if m.PeakNodes() < s.Nodes {
		t.Fatal("peak below live count")
	}
}

// TestMemEstimateRecordSizes: MemEstimate's per-record byte counts must
// follow the node and cache-entry layouts.
func TestMemEstimateRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != nodeBytes || nodeBytes != 16 {
		t.Errorf("node is %d bytes, nodeBytes is %d, want both 16", got, nodeBytes)
	}
	if got := unsafe.Sizeof(cacheEntry{}); got != cacheEntryBytes {
		t.Errorf("cacheEntry is %d bytes, cacheEntryBytes is %d", got, cacheEntryBytes)
	}
}

func TestVarNames(t *testing.T) {
	m := New()
	v := m.NewVar("clk")
	if m.VarName(v) != "clk" {
		t.Fatalf("VarName = %q", m.VarName(v))
	}
	anon := m.NewVar("")
	if m.VarName(anon) != "v1" {
		t.Fatalf("anonymous VarName = %q, want v1", m.VarName(anon))
	}
	if m.VarName(Var(99)) == "" {
		t.Fatal("out-of-range VarName should return placeholder")
	}
	vs := m.NewVars("d", 3)
	if len(vs) != 3 || m.VarName(vs[2]) != "d2" {
		t.Fatalf("NewVars naming wrong: %v", vs)
	}
}

func TestUniqueTableGrowth(t *testing.T) {
	// Force enough distinct nodes to trigger several bucket doublings.
	m := NewWithSize(16, 10)
	n := 14
	m.NewVars("x", n)
	rng := rand.New(rand.NewSource(7))
	acc := Zero
	for i := 0; i < 200; i++ {
		cube := One
		for j := 0; j < n; j++ {
			v := m.VarRef(Var(j))
			if rng.Intn(2) == 0 {
				v = v.Not()
			}
			cube = m.And(cube, v)
		}
		acc = m.Or(acc, cube)
	}
	if acc == Zero {
		t.Fatal("accumulated nothing")
	}
	checkInv(t, m)
}
