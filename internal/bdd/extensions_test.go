package bdd

import (
	"math/rand"
	"testing"
	"time"
)

// --- Bounded operations (Section V: abort on size) ----------------------

func TestAndBoundedWithinBudget(t *testing.T) {
	m := newTestManager(t, 6)
	a := m.And(m.VarRef(0), m.VarRef(1))
	b := m.And(m.VarRef(2), m.VarRef(3))
	r, ok := m.AndBounded(a, b, 1000)
	if !ok || r != m.And(a, b) {
		t.Fatal("in-budget AndBounded failed")
	}
	// Unbounded convention.
	if r, ok := m.AndBounded(a, b, 0); !ok || r != m.And(a, b) {
		t.Fatal("budget 0 should be unbounded")
	}
}

func TestAndBoundedAborts(t *testing.T) {
	const n = 16
	m := newTestManager(t, n)
	// Two parity functions over disjoint halves: their conjunction has
	// ~2x nodes; a budget of 1 node cannot hold it (fresh manager state
	// means everything must be allocated).
	a, b := One, One
	for i := 0; i < n/2; i++ {
		a = m.Xor(a, m.VarRef(Var(i)))
		b = m.Xor(b, m.VarRef(Var(n/2+i)))
	}
	before := m.NumNodes()
	_, ok := m.AndBounded(a, b, 1)
	if ok {
		t.Fatal("AndBounded did not abort on a 1-node budget")
	}
	// Manager remains usable, limit restored.
	if m.NodeLimit() != 0 {
		t.Fatalf("node limit not restored: %d", m.NodeLimit())
	}
	r := m.And(a, b)
	if r == Zero || r == One {
		t.Fatal("manager broken after bounded abort")
	}
	_ = before
	checkInv(t, m)
}

func TestAndBoundedRespectsOuterLimit(t *testing.T) {
	m := newTestManager(t, 16)
	a, b := One, One
	for i := 0; i < 8; i++ {
		a = m.Xor(a, m.VarRef(Var(i)))
		b = m.Xor(b, m.VarRef(Var(8+i)))
	}
	m.SetNodeLimit(m.NumNodes() + 2) // run-level budget nearly exhausted
	err := Guard(func() {
		// A generous operation budget must NOT override the run budget.
		m.AndBounded(a, b, 1_000_000)
	})
	m.SetNodeLimit(0)
	if err == nil {
		t.Fatal("outer node limit was swallowed by AndBounded")
	}
}

// --- General cofactor ----------------------------------------------------

func TestCofactorLitTruthTables(t *testing.T) {
	const n = 5
	m := newTestManager(t, n)
	rng := rand.New(rand.NewSource(111))
	for _, tbl := range randTables(rng, n, 40) {
		f := truthToBDD(m, n, tbl)
		for v := 0; v < n; v++ {
			lo, hi := m.CofactorVar(f, Var(v))
			wantLo := composeTruth(tbl, 0, n, v)            // v <- false
			wantHi := composeTruth(tbl, tableMask(n), n, v) // v <- true
			if got := bddToTruth(m, lo, n); got != wantLo {
				t.Fatalf("CofactorLit(%#x, x%d, false) = %#x, want %#x", tbl, v, got, wantLo)
			}
			if got := bddToTruth(m, hi, n); got != wantHi {
				t.Fatalf("CofactorLit(%#x, x%d, true) = %#x, want %#x", tbl, v, got, wantHi)
			}
			// Shannon reconstruction.
			if m.ITE(m.VarRef(Var(v)), hi, lo) != f {
				t.Fatal("Shannon reconstruction failed")
			}
			// Cofactors never mention the variable.
			for _, s := range m.Support(lo) {
				if s == Var(v) {
					t.Fatal("low cofactor still depends on the variable")
				}
			}
		}
	}
	checkInv(t, m)
}

func TestCofactorLitBelowTop(t *testing.T) {
	m := newTestManager(t, 4)
	// f's top is x0 but we cofactor on x2, deep in the graph.
	f := m.Or(m.And(m.VarRef(0), m.VarRef(2)), m.And(m.VarRef(1), m.VarRef(2).Not()))
	hi := m.CofactorLit(f, 2, true)
	if hi != m.Or(m.VarRef(0), bddAnd(m, m.VarRef(1), Zero)) {
		// x2=1: f = x0 ∨ (x1 ∧ 0) = x0.
		if hi != m.VarRef(0) {
			t.Fatalf("deep cofactor wrong: %s", m.String(hi))
		}
	}
	lo := m.CofactorLit(f, 2, false)
	if lo != m.VarRef(1) {
		t.Fatalf("deep cofactor (false) wrong: %s", m.String(lo))
	}
}

func bddAnd(m *Manager, a, b Ref) Ref { return m.And(a, b) }

// --- Deadline ------------------------------------------------------------

func TestDeadlineAbortsLongOperation(t *testing.T) {
	m := newTestManager(t, 40)
	m.SetDeadline(time.Now().Add(-time.Second)) // already expired
	err := Guard(func() {
		acc := One
		for i := 0; i < 40; i++ {
			acc = m.Xor(acc, m.VarRef(Var(i)))
		}
		// Force enough fresh allocations to pass a deadline check.
		f := Zero
		for i := 0; i+1 < 40; i++ {
			f = m.Or(f, m.And(m.VarRef(Var(i)), m.VarRef(Var(i+1))))
		}
	})
	m.SetDeadline(time.Time{})
	if err == nil {
		t.Skip("operation finished before the first deadline check (too few allocations)")
	}
	if _, ok := err.(*DeadlineError); !ok {
		t.Fatalf("got %T, want *DeadlineError", err)
	}
	if err.Error() == "" {
		t.Fatal("empty deadline error")
	}
	// Manager remains usable after the abort and with deadline cleared.
	if m.And(m.VarRef(0), m.VarRef(1)) == Zero {
		t.Fatal("manager broken after deadline abort")
	}
}
