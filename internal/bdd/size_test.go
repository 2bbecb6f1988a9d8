package bdd

import (
	"math/big"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

func TestSizeBasics(t *testing.T) {
	m := newTestManager(t, 4)
	if m.Size(One) != 1 || m.Size(Zero) != 1 {
		t.Fatal("constant size != 1")
	}
	x := m.VarRef(0)
	if m.Size(x) != 2 {
		t.Fatalf("Size(x) = %d, want 2 (node + terminal)", m.Size(x))
	}
	// Complement edges: f and ¬f share every node.
	f := m.Xor(m.VarRef(0), m.VarRef(1))
	if m.Size(f) != m.Size(f.Not()) {
		t.Fatal("negation changed size")
	}
	if m.SharedSize(f, f.Not()) != m.Size(f) {
		t.Fatal("f and ¬f do not share all nodes")
	}
}

func TestSharedSizeAccountsSharing(t *testing.T) {
	m := newTestManager(t, 6)
	x, y, z := m.VarRef(0), m.VarRef(1), m.VarRef(2)
	u, v := m.VarRef(4), m.VarRef(5)
	common := m.Xor(y, z)
	f := m.And(x, common)
	g := m.Or(x.Not(), common)
	// f and g share the xor sub-BDD.
	sf, sg, both := m.Size(f), m.Size(g), m.SharedSize(f, g)
	if both >= sf+sg {
		t.Fatalf("SharedSize(%d) not below sum of sizes (%d+%d)", both, sf, sg)
	}
	// Disjoint supports share only the terminal.
	h := m.And(u, v)
	if got := m.SharedSize(f, h); got != sf+m.Size(h)-1 {
		t.Fatalf("disjoint SharedSize = %d, want %d", got, sf+m.Size(h)-1)
	}
	// SharedSize of one root equals Size.
	if m.SharedSize(f) != sf {
		t.Fatal("SharedSize of single root differs from Size")
	}
}

func TestSupport(t *testing.T) {
	m := newTestManager(t, 8)
	f := m.AndN(m.VarRef(1), m.VarRef(4).Not(), m.Xor(m.VarRef(6), m.VarRef(1)))
	got := m.Support(f)
	want := []Var{1, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("Support = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Support = %v, want %v", got, want)
		}
	}
	if len(m.Support(One)) != 0 {
		t.Fatal("Support of constant not empty")
	}
}

func TestSatCountMatchesPopcount(t *testing.T) {
	const n = 5
	m := newTestManager(t, n)
	rng := rand.New(rand.NewSource(41))
	for _, tbl := range randTables(rng, n, 60) {
		f := truthToBDD(m, n, tbl)
		want := big.NewInt(int64(bits.OnesCount64(tbl)))
		if got := m.SatCountVars(f, n); got.Cmp(want) != 0 {
			t.Fatalf("SatCount(%#x) = %v, want %v", tbl, got, want)
		}
	}
	// Over the full declared universe, free variables double the count.
	m2 := newTestManager(t, 8)
	x := m2.VarRef(0)
	want := new(big.Int).Lsh(big.NewInt(1), 7) // x fixed, 7 free vars
	if got := m2.SatCount(x); got.Cmp(want) != 0 {
		t.Fatalf("SatCount over universe = %v, want %v", got, want)
	}
}

func TestSatCountUniverseTooSmall(t *testing.T) {
	m := newTestManager(t, 4)
	f := m.VarRef(3)
	defer func() {
		if recover() == nil {
			t.Fatal("SatCountVars with too-small universe did not panic")
		}
	}()
	m.SatCountVars(f, 2)
}

func TestAnySatAndAssignment(t *testing.T) {
	const n = 5
	m := newTestManager(t, n)
	rng := rand.New(rand.NewSource(42))
	if m.AnySat(Zero) != nil {
		t.Fatal("AnySat(Zero) != nil")
	}
	if len(m.AnySat(One)) != 0 {
		t.Fatal("AnySat(One) should be the empty cube")
	}
	if m.SatAssignment(Zero) != nil {
		t.Fatal("SatAssignment(Zero) != nil")
	}
	for _, tbl := range randTables(rng, n, 60) {
		if tbl == 0 {
			continue
		}
		f := truthToBDD(m, n, tbl)
		a := m.SatAssignment(f)
		if a == nil || !m.Eval(f, a) {
			t.Fatalf("SatAssignment of %#x does not satisfy", tbl)
		}
		cube := m.CubeRef(m.AnySat(f))
		if !m.Implies(cube, f) {
			t.Fatalf("AnySat cube of %#x not contained in f", tbl)
		}
		if cube == Zero {
			t.Fatal("AnySat cube unsatisfiable")
		}
	}
}

func TestCubeRefPolarities(t *testing.T) {
	m := newTestManager(t, 4)
	cube := m.CubeRef([]Lit{{Var: 2, Val: false}, {Var: 0, Val: true}})
	a := []bool{true, false, false, false}
	if !m.Eval(cube, a) {
		t.Fatal("cube false under its own assignment")
	}
	a[2] = true
	if m.Eval(cube, a) {
		t.Fatal("cube true with negative literal violated")
	}
	if m.CubeRef(nil) != One {
		t.Fatal("empty cube != One")
	}
}

func TestEvalShortAssignmentPanics(t *testing.T) {
	m := newTestManager(t, 4)
	f := m.VarRef(3)
	defer func() {
		if recover() == nil {
			t.Fatal("Eval with short assignment did not panic")
		}
	}()
	m.Eval(f, []bool{true})
}

func TestWriteDOT(t *testing.T) {
	m := newTestManager(t, 3)
	f := m.Or(m.And(m.VarRef(0), m.VarRef(1)), m.VarRef(2).Not())
	var b strings.Builder
	if err := m.WriteDOT(&b, f, f.Not()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"digraph bdd", "root0", "root1", "x0", "rank=same"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}

	// The text is canonical: one function built after different
	// operation histories, on two managers with the same variables,
	// renders byte for byte the same.
	dot := func(m *Manager, f Ref) string {
		var b strings.Builder
		if err := m.WriteDOT(&b, f); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	m1 := newTestManager(t, 4)
	g1 := m1.Xor(m1.And(m1.VarRef(0), m1.VarRef(1)), m1.Or(m1.VarRef(2), m1.VarRef(3)))
	m2 := newTestManager(t, 4)
	m2.And(m2.VarRef(1), m2.VarRef(3).Not()) // garbage allocated first
	g2 := m2.Xor(m2.Or(m2.VarRef(3), m2.VarRef(2)), m2.And(m2.VarRef(1), m2.VarRef(0)))
	if d1, d2 := dot(m1, g1), dot(m2, g2); d1 != d2 {
		t.Fatalf("same function, different DOT text:\n%s\nvs\n%s", d1, d2)
	}
}

func TestStringRendering(t *testing.T) {
	m := newTestManager(t, 3)
	if m.String(One) != "true" || m.String(Zero) != "false" {
		t.Fatal("constant rendering wrong")
	}
	s := m.String(m.And(m.VarRef(0), m.VarRef(2).Not()))
	if !strings.Contains(s, "x0") || !strings.Contains(s, "nodes") {
		t.Fatalf("String rendering unhelpful: %q", s)
	}
}
