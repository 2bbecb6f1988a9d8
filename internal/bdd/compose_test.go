package bdd

import (
	"math/rand"
	"testing"
)

// composeTruth computes f[v <- g] on truth tables: the value at
// assignment a is f's value at a with bit v replaced by g(a).
func composeTruth(tf, tg uint64, n, v int) uint64 {
	var out uint64
	for i := 0; i < int(tableBits(n)); i++ {
		gi := tg&(1<<uint(i)) != 0
		j := i &^ (1 << uint(v))
		if gi {
			j |= 1 << uint(v)
		}
		if tf&(1<<uint(j)) != 0 {
			out |= 1 << uint(i)
		}
	}
	return out
}

func TestComposeSingleVar(t *testing.T) {
	const n = 4
	m := newTestManager(t, n)
	rng := rand.New(rand.NewSource(21))
	for _, tf := range randTables(rng, n, 20) {
		for _, tg := range randTables(rng, n, 4) {
			for v := 0; v < n; v++ {
				f := truthToBDD(m, n, tf)
				g := truthToBDD(m, n, tg)
				want := composeTruth(tf, tg, n, v)
				if got := bddToTruth(m, m.Compose(f, Var(v), g), n); got != want {
					t.Fatalf("Compose(%#x, x%d, %#x) = %#x, want %#x", tf, v, tg, got, want)
				}
			}
		}
	}
	checkInv(t, m)
}

// TestComposeSimultaneous checks that a swap substitution x<->y really is
// simultaneous (sequential substitution would collapse both to one var).
func TestComposeSimultaneous(t *testing.T) {
	m := newTestManager(t, 3)
	x, y, z := m.VarRef(0), m.VarRef(1), m.VarRef(2)
	f := m.Or(m.And(x, z), m.And(y.Not(), z.Not())) // depends on x and y asymmetrically
	s := m.NewSubstitution()
	s.Set(0, y)
	s.Set(1, x)
	got := s.Compose(f)
	want := m.Or(m.And(y, z), m.And(x.Not(), z.Not()))
	if got != want {
		t.Fatal("swap substitution is not simultaneous")
	}
	if s.Pairs() != 2 {
		t.Fatalf("Pairs = %d", s.Pairs())
	}
}

func TestComposeGeneralSimultaneous(t *testing.T) {
	const n = 5
	m := newTestManager(t, n)
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 60; iter++ {
		tf := rng.Uint64() & tableMask(n)
		tg0 := rng.Uint64() & tableMask(n)
		tg1 := rng.Uint64() & tableMask(n)
		f := truthToBDD(m, n, tf)
		g0 := truthToBDD(m, n, tg0)
		g1 := truthToBDD(m, n, tg1)

		s := m.NewSubstitution()
		s.Set(1, g0)
		s.Set(3, g1)
		got := bddToTruth(m, s.Compose(f), n)

		// Reference: evaluate pointwise.
		var want uint64
		for i := 0; i < int(tableBits(n)); i++ {
			j := i &^ (1 << 1) &^ (1 << 3)
			if tg0&(1<<uint(i)) != 0 {
				j |= 1 << 1
			}
			if tg1&(1<<uint(i)) != 0 {
				j |= 1 << 3
			}
			if tf&(1<<uint(j)) != 0 {
				want |= 1 << uint(i)
			}
		}
		if got != want {
			t.Fatalf("simultaneous compose mismatch: got %#x want %#x", got, want)
		}
	}
	checkInv(t, m)
}

func TestComposeIdentityAndConstants(t *testing.T) {
	m := newTestManager(t, 3)
	x, y := m.VarRef(0), m.VarRef(1)
	f := m.Xor(x, y)
	s := m.NewSubstitution()
	if s.Compose(f) != f {
		t.Fatal("empty substitution changed function")
	}
	if s.Compose(One) != One || s.Compose(Zero) != Zero {
		t.Fatal("substitution changed constants")
	}
	// Substituting constants evaluates the function partially.
	if m.Compose(f, 0, One) != y.Not() {
		t.Fatal("f[x<-1] != ¬y for f = x xor y")
	}
	if m.Compose(f, 0, Zero) != y {
		t.Fatal("f[x<-0] != y for f = x xor y")
	}
}

func TestRename(t *testing.T) {
	m := newTestManager(t, 6)
	x0, x1 := m.VarRef(0), m.VarRef(1)
	f := m.And(x0, x1.Not())
	g := m.Rename(f, []Var{0, 1}, []Var{4, 5})
	want := m.And(m.VarRef(4), m.VarRef(5).Not())
	if g != want {
		t.Fatal("rename to fresh variables failed")
	}
	// Rename down the order as well (the fsm layer renames next->current).
	h := m.Rename(g, []Var{4, 5}, []Var{0, 1})
	if h != f {
		t.Fatal("rename round trip failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Rename lists did not panic")
		}
	}()
	m.Rename(f, []Var{0}, []Var{1, 2})
}

func TestSubstitutionMemoSurvivesReuse(t *testing.T) {
	const n = 4
	m := newTestManager(t, n)
	rng := rand.New(rand.NewSource(23))
	s := m.NewSubstitution()
	g := truthToBDD(m, n, rng.Uint64()&tableMask(n))
	s.Set(2, g)
	for _, tf := range randTables(rng, n, 10) {
		f := truthToBDD(m, n, tf)
		first := s.Compose(f)
		second := s.Compose(f) // memoized path
		if first != second {
			t.Fatal("memoized compose differs from fresh compose")
		}
	}
	// Changing a mapping must drop the memo.
	s.Set(2, One)
	f := truthToBDD(m, n, 0xabcd&tableMask(n))
	if s.Compose(f) != m.Compose(f, 2, One) {
		t.Fatal("stale memo after Set")
	}
}
