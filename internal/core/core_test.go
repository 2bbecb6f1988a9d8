package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bdd"
)

// Test harness: random implicit conjunctions over few variables, cross
// checked against their explicit conjunction (canonical single BDD).

const tn = 5 // variables in the truth-table universe

func newM(t testing.TB) *bdd.Manager {
	t.Helper()
	m := bdd.New()
	m.NewVars("x", tn)
	return m
}

// randFn builds a random function over the first tn variables.
func randFn(m *bdd.Manager, rng *rand.Rand) bdd.Ref {
	// Random 3-term DNF-ish function: dense enough to interact.
	f := bdd.Zero
	for t := 0; t < 3; t++ {
		cube := bdd.One
		for v := 0; v < tn; v++ {
			switch rng.Intn(3) {
			case 0:
				cube = m.And(cube, m.VarRef(bdd.Var(v)))
			case 1:
				cube = m.And(cube, m.NVarRef(bdd.Var(v)))
			}
		}
		f = m.Or(f, cube)
	}
	return f
}

// randList builds a random list of k conjuncts.
func randList(m *bdd.Manager, rng *rand.Rand, k int) List {
	cs := make([]bdd.Ref, k)
	for i := range cs {
		cs[i] = randFn(m, rng)
	}
	return NewList(m, cs...)
}

func TestNewListNormalization(t *testing.T) {
	m := newM(t)
	x, y := m.VarRef(0), m.VarRef(1)

	l := NewList(m, x, bdd.One, y, x) // One dropped, duplicate x dropped
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (%v)", l.Len(), l.Conjuncts)
	}
	if NewList(m, x, bdd.Zero, y).IsFalse() != true {
		t.Fatal("Zero conjunct did not collapse list")
	}
	if !NewList(m, x, x.Not()).IsFalse() {
		t.Fatal("complementary pair did not collapse list to false")
	}
	if !NewList(m).IsTrue() {
		t.Fatal("empty list is not true")
	}
	if NewList(m, bdd.One).Len() != 0 {
		t.Fatal("list of One should normalize to empty")
	}
}

func TestExplicitAndEval(t *testing.T) {
	m := newM(t)
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 50; iter++ {
		l := randList(m, rng, 1+rng.Intn(4))
		explicit := l.Explicit()
		// Pointwise agreement on random assignments.
		for s := 0; s < 20; s++ {
			a := make([]bool, tn)
			for i := range a {
				a[i] = rng.Intn(2) == 1
			}
			if l.Eval(a) != m.Eval(explicit, a) {
				t.Fatal("List.Eval disagrees with explicit conjunction")
			}
		}
	}
}

func TestContainsSetAndViolatingConjunct(t *testing.T) {
	m := newM(t)
	x, y, z := m.VarRef(0), m.VarRef(1), m.VarRef(2)
	l := NewList(m, m.Or(x, y), m.Or(y, z))

	inside := m.And(y, m.VarRef(3)) // y ⇒ both conjuncts
	if !l.ContainsSet(inside) {
		t.Fatal("ContainsSet false for contained set")
	}
	if l.ViolatingConjunct(inside) != -1 {
		t.Fatal("ViolatingConjunct found violation for contained set")
	}

	outside := m.AndN(x, y.Not(), z.Not()) // violates the second conjunct
	if l.ContainsSet(outside) {
		t.Fatal("ContainsSet true for escaping set")
	}
	if got := l.ViolatingConjunct(outside); got != 1 {
		t.Fatalf("ViolatingConjunct = %d, want 1", got)
	}
	// True list contains everything.
	if !NewList(m).ContainsSet(bdd.One) {
		t.Fatal("true list does not contain universe")
	}
}

func TestSharedSizeAndSizes(t *testing.T) {
	m := newM(t)
	x, y := m.VarRef(0), m.VarRef(1)
	common := m.Xor(m.VarRef(2), m.VarRef(3))
	l := NewList(m, m.And(x, common), m.And(y, common))
	sizes := l.Sizes()
	if len(sizes) != 2 {
		t.Fatalf("Sizes len = %d", len(sizes))
	}
	if l.SharedSize() >= sizes[0]+sizes[1] {
		t.Fatal("SharedSize does not account for node sharing")
	}
	if NewList(m).SharedSize() != 1 {
		t.Fatal("empty list shared size != 1")
	}
}

func TestStringRendering(t *testing.T) {
	m := newM(t)
	if NewList(m).String() != "true" {
		t.Fatal("true list rendering")
	}
	if NewList(m, bdd.Zero).String() != "false" {
		t.Fatal("false list rendering")
	}
	s := NewList(m, m.VarRef(0), m.VarRef(1)).String()
	if !strings.Contains(s, "nodes (") {
		t.Fatalf("size profile rendering: %q", s)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := newM(t)
	l := NewList(m, m.VarRef(0), m.VarRef(1))
	c := l.Clone()
	c.Conjuncts[0] = bdd.One
	if l.Conjuncts[0] == bdd.One {
		t.Fatal("Clone aliases the original slice")
	}
}
