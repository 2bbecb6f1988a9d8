package bdd

import (
	"math/rand"
	"testing"
)

func TestGCReclaimsGarbage(t *testing.T) {
	const n = 8
	m := newTestManager(t, n)
	rng := rand.New(rand.NewSource(51))

	keep := truthToBDD(m, 6, rng.Uint64()&tableMask(6))
	keepTruth := bddToTruth(m, keep, 6)

	// Generate garbage.
	for i := 0; i < 50; i++ {
		a := truthToBDD(m, 6, rng.Uint64()&tableMask(6))
		b := truthToBDD(m, 6, rng.Uint64()&tableMask(6))
		m.Xor(a, b)
	}
	before := m.NumNodes()
	freed := m.GC(keep)
	if freed == 0 {
		t.Fatal("GC freed nothing despite garbage")
	}
	if m.NumNodes() != before-freed {
		t.Fatalf("node accounting wrong: %d before, %d freed, %d after",
			before, freed, m.NumNodes())
	}
	checkInv(t, m)

	// The root's function must be intact and usable.
	if got := bddToTruth(m, keep, 6); got != keepTruth {
		t.Fatalf("root function corrupted: %#x want %#x", got, keepTruth)
	}

	// Freed slots are reused and canonical refs still work.
	again := truthToBDD(m, 6, keepTruth)
	if again != keep {
		t.Fatal("rebuilding root function gave different ref")
	}
	if got := m.GC(); got == 0 {
		// With no roots, keep's nodes must now be gone.
		t.Fatal("GC without roots freed nothing")
	}
	checkInv(t, m)
}

func TestGCKeepsReachableSubgraphs(t *testing.T) {
	m := newTestManager(t, 6)
	x, y, z := m.VarRef(0), m.VarRef(1), m.VarRef(2)
	inner := m.Xor(y, z)
	outer := m.And(x, inner)
	// inner is not a root but is reachable from outer, so it survives GC.
	// The standalone variable nodes y and z are NOT reachable from outer
	// (outer's graph contains y- and z-labelled nodes with different
	// children), so those Refs dangle after GC — re-acquire them.
	m.GC(outer)
	checkInv(t, m)
	y2, z2 := m.VarRef(1), m.VarRef(2)
	if m.Xor(y2, z2) != inner {
		t.Fatal("reachable subgraph was collected or rebuilt differently")
	}
}

// TestProtectConstantsNoop: constants passed as roots keep nothing
// alive, and a collection from them alone leaves only the terminal.
func TestProtectConstantsNoop(t *testing.T) {
	m := newTestManager(t, 2)
	m.And(m.VarRef(0), m.VarRef(1))
	if freed := m.GC(One, Zero); freed != 3 {
		t.Fatalf("GC(One, Zero) freed %d nodes, want 3", freed)
	}
	if m.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d after collecting from constant roots", m.NumNodes())
	}
	checkInv(t, m)
}

func TestGCInvalidatesCachesCorrectly(t *testing.T) {
	const n = 5
	m := newTestManager(t, n)
	rng := rand.New(rand.NewSource(52))

	// Interleave computation and GC; results must stay canonical.
	roots := make([]Ref, 0, 8)
	truths := make([]uint64, 0, 8)
	for i := 0; i < 8; i++ {
		tbl := rng.Uint64() & tableMask(n)
		r := truthToBDD(m, n, tbl)
		roots = append(roots, r)
		truths = append(truths, tbl)
	}
	for iter := 0; iter < 10; iter++ {
		a := roots[rng.Intn(len(roots))]
		b := roots[rng.Intn(len(roots))]
		m.And(a, b) // garbage
		m.GC(roots...)
		for i, r := range roots {
			if got := bddToTruth(m, r, n); got != truths[i] {
				t.Fatalf("root %d corrupted after GC round %d", i, iter)
			}
		}
		checkInv(t, m)
	}
	s := m.Stats()
	if s.GCs < 10 {
		t.Fatalf("GC count = %d, want >= 10", s.GCs)
	}

	// After GC, recomputation through the (cleared) cache is consistent.
	and01 := m.And(roots[0], roots[1])
	if got := bddToTruth(m, and01, n); got != truths[0]&truths[1] {
		t.Fatal("post-GC And incorrect")
	}
}

// TestSubstitutionEpochInvalidation ensures a Substitution built before a
// GC does not serve stale memo entries afterwards.
func TestSubstitutionEpochInvalidation(t *testing.T) {
	const n = 5
	m := newTestManager(t, n)
	rng := rand.New(rand.NewSource(53))

	g := truthToBDD(m, n, rng.Uint64()&tableMask(n))
	s := m.NewSubstitution()
	s.Set(1, g)

	f1 := truthToBDD(m, n, rng.Uint64()&tableMask(n))
	r1 := s.Compose(f1)
	want1 := bddToTruth(m, r1, n)

	// Create garbage, collect, then reuse the substitution.
	for i := 0; i < 30; i++ {
		m.Xor(truthToBDD(m, n, rng.Uint64()&tableMask(n)), f1)
	}
	m.GC(g, f1, r1)

	f2 := truthToBDD(m, n, rng.Uint64()&tableMask(n))
	r2 := s.Compose(f2)
	// Reference computation with a fresh substitution.
	s2 := m.NewSubstitution()
	s2.Set(1, g)
	if r2 != s2.Compose(f2) {
		t.Fatal("stale substitution memo after GC")
	}
	if got := bddToTruth(m, s.Compose(f1), n); got != want1 {
		t.Fatal("substitution result changed after GC")
	}
	checkInv(t, m)
}
