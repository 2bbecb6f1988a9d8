package bdd

import (
	"math/rand"
	"testing"
)

func TestTransferIdentity(t *testing.T) {
	const n = 5
	src := newTestManager(t, n)
	dst := newTestManager(t, n)
	rng := rand.New(rand.NewSource(131))
	for _, tbl := range randTables(rng, n, 40) {
		f := truthToBDD(src, n, tbl)
		g := Transfer(dst, src, f, nil)
		if got := bddToTruth(dst, g, n); got != tbl {
			t.Fatalf("identity transfer changed semantics: %#x -> %#x", tbl, got)
		}
		// Same order, same canonical structure: sizes match.
		if dst.Size(g) != src.Size(f) {
			t.Fatalf("identity transfer changed size: %d -> %d", src.Size(f), dst.Size(g))
		}
	}
	checkInv(t, dst)
}

func TestTransferConstantsAndComplements(t *testing.T) {
	src := newTestManager(t, 3)
	dst := newTestManager(t, 3)
	if Transfer(dst, src, One, nil) != One || Transfer(dst, src, Zero, nil) != Zero {
		t.Fatal("constants did not transfer to constants")
	}
	f := src.Xor(src.VarRef(0), src.VarRef(2))
	g := Transfer(dst, src, f, nil)
	gn := Transfer(dst, src, f.Not(), nil)
	if gn != g.Not() {
		t.Fatal("complement not preserved across transfer")
	}
}

// TestTransferReorder permutes variables and checks pointwise semantics
// under the permutation.
func TestTransferReorder(t *testing.T) {
	const n = 5
	src := newTestManager(t, n)
	dst := newTestManager(t, n)
	rng := rand.New(rand.NewSource(132))

	perm := []Var{3, 0, 4, 1, 2} // src var i -> dst var perm[i]
	for _, tbl := range randTables(rng, n, 30) {
		f := truthToBDD(src, n, tbl)
		g := Transfer(dst, src, f, perm)
		// Pointwise: g under assignment a equals f under the pullback.
		for i := 0; i < int(tableBits(n)); i++ {
			a := make([]bool, n)
			for j := 0; j < n; j++ {
				a[j] = (i>>uint(j))&1 == 1
			}
			pulled := make([]bool, n)
			for srcVar, dstVar := range perm {
				pulled[srcVar] = a[dstVar]
			}
			if dst.Eval(g, a) != src.Eval(f, pulled) {
				t.Fatalf("reorder transfer wrong at %v (table %#x)", a, tbl)
			}
		}
	}
	checkInv(t, dst)
}

// TestTransferOrderingMatters demonstrates the point of the facility:
// the same function under block vs interleaved ordering has drastically
// different sizes (the [19] datapath heuristic).
func TestTransferOrderingMatters(t *testing.T) {
	const w = 8
	// Source: block order a0..a7 b0..b7; equality comparator.
	src := New()
	av := src.NewVars("a", w)
	bv := src.NewVars("b", w)
	eq := One
	for i := 0; i < w; i++ {
		eq = src.And(eq, src.Xnor(src.VarRef(av[i]), src.VarRef(bv[i])))
	}
	blockSize := src.Size(eq)

	// Destination: interleaved order a0 b0 a1 b1 ...
	dst := New()
	dst.NewVars("x", 2*w)
	varMap := make([]Var, 2*w)
	for i := 0; i < w; i++ {
		varMap[av[i]] = Var(2 * i)
		varMap[bv[i]] = Var(2*i + 1)
	}
	inter := Transfer(dst, src, eq, varMap)
	interSize := dst.Size(inter)

	// Equality under block ordering is exponential (must remember all of
	// a before seeing b); interleaved is linear.
	if interSize*8 > blockSize {
		t.Fatalf("expected dramatic shrink: block %d vs interleaved %d", blockSize, interSize)
	}
	if interSize > 3*w+2 {
		t.Fatalf("interleaved comparator should be linear: %d nodes", interSize)
	}

	// Round trip back to block order reproduces the original size.
	back := make([]Var, 2*w)
	for srcVar, dstVar := range varMap {
		back[dstVar] = Var(srcVar)
	}
	again := Transfer(src, dst, inter, back)
	if again != eq {
		t.Fatal("round-trip transfer lost the function")
	}
}

func TestTransferAllSharesMemo(t *testing.T) {
	const n = 4
	src := newTestManager(t, n)
	dst := newTestManager(t, n)
	common := src.Xor(src.VarRef(1), src.VarRef(2))
	f := src.And(src.VarRef(0), common)
	g := src.Or(src.VarRef(3), common)
	out := TransferAll(dst, src, []Ref{f, g, f.Not()}, nil)
	if len(out) != 3 {
		t.Fatal("wrong arity")
	}
	if out[2] != out[0].Not() {
		t.Fatal("complement pair broken")
	}
	if dst.SharedSize(out[0], out[1]) != src.SharedSize(f, g) {
		t.Fatal("shared structure not preserved")
	}
}

func TestTransferUncoveredSupportPanics(t *testing.T) {
	src := newTestManager(t, 3)
	dst := newTestManager(t, 3)
	f := src.VarRef(2)
	defer func() {
		if recover() == nil {
			t.Fatal("short varMap did not panic")
		}
	}()
	Transfer(dst, src, f, []Var{0})
}

// newDest returns a fresh destination manager declaring n variables, the
// way sift.go builds its scratch managers.
func newDest(n int) *Manager {
	d := New()
	d.NewVars("d", n)
	return d
}

// TestTransferBackIsCanonical: a conjunction computed on the destination
// transfers back to the exact Ref the source manager's own And returns.
func TestTransferBackIsCanonical(t *testing.T) {
	m := newTestManager(t, 5)
	w := newDest(m.NumVars())

	f := m.Or(m.And(m.VarRef(0), m.VarRef(3)), m.Xor(m.VarRef(1), m.VarRef(4)))
	g := m.And(f, m.VarRef(2))
	fs := TransferAll(w, m, []Ref{f, g}, nil)
	p := w.And(fs[0], fs[1])
	if Transfer(m, w, p, nil) != m.And(f, g) {
		t.Fatal("destination result did not transfer back to the canonical Ref")
	}
	checkInv(t, w)
}

// TestTransferLeavesSourceUntouched: allocations on the destination
// never touch the source.
func TestTransferLeavesSourceUntouched(t *testing.T) {
	m := newTestManager(t, 4)
	f := m.VarRef(0)
	before := m.NumNodes()
	w := newDest(m.NumVars())
	ws := TransferAll(w, m, []Ref{f}, nil)
	w.And(w.Xor(ws[0], w.VarRef(1)), w.VarRef(2))
	if m.NumNodes() != before {
		t.Fatalf("destination activity changed source node count: %d -> %d", before, m.NumNodes())
	}
}

// TestVarMismatchError: a destination that declared the source's
// variables before the source grew must reject a function whose support
// includes a later variable with the typed error, not silently diverge.
func TestVarMismatchError(t *testing.T) {
	m := New()
	a := m.NewVar("a")
	w := newDest(m.NumVars()) // declares {a}
	b := m.NewVar("b")        // source diverges
	f := m.And(m.VarRef(a), m.VarRef(b))

	defer func() {
		r := recover()
		ve, ok := r.(*VarMismatchError)
		if !ok {
			t.Fatalf("panic value %v (%T), want *VarMismatchError", r, r)
		}
		if ve.Var != b || ve.DstVars != 1 || ve.SrcVars != 2 {
			t.Fatalf("error fields %+v, want Var=%d DstVars=1 SrcVars=2", ve, b)
		}
		if ve.Error() == "" {
			t.Fatal("empty error string")
		}
	}()
	Transfer(w, m, f, nil)
	t.Fatal("Transfer succeeded past the destination's declared variables")
}

// TestVarMismatchOKOnOldSupport: the check is support-precise — a
// function untouched by later variables still transfers.
func TestVarMismatchOKOnOldSupport(t *testing.T) {
	m := New()
	a := m.NewVar("a")
	w := newDest(m.NumVars())
	m.NewVar("b")
	f := m.VarRef(a)
	if got := Transfer(w, m, f, nil); got != w.VarRef(a) {
		t.Fatalf("Transfer of old-support function wrong: %v", got)
	}
}

// TestTransferMemoReuse: repeated transfers into one destination reuse
// the generation-stamped scratch and stay correct (the bug mode would be
// a stale memo entry surviving a generation bump).
func TestTransferMemoReuse(t *testing.T) {
	m, vars := fuzzManager()
	w := newDest(m.NumVars())
	for i, p := range testPrograms {
		f, table := fuzzFormula(m, vars, p)
		got := Transfer(w, m, f, nil)
		if gt := fuzzEvalTable(w, got); gt != table {
			t.Fatalf("transfer %d: table %08x want %08x", i, gt, table)
		}
		if back := Transfer(m, w, got, nil); back != f {
			t.Fatalf("transfer %d: round trip moved Ref", i)
		}
	}
}

// mapTransfer is the earlier map-memo Transfer, kept here as the
// benchmark baseline.
func mapTransfer(dst, src *Manager, f Ref) Ref {
	memo := make(map[Ref]Ref)
	var cp func(f Ref) Ref
	cp = func(f Ref) Ref {
		if f == One || f == Zero {
			return f
		}
		reg := f &^ 1
		if r, ok := memo[reg]; ok {
			return r ^ (f & 1)
		}
		v := Var(src.Level(reg))
		lo := cp(src.Low(reg))
		hi := cp(src.High(reg))
		r := dst.ite(dst.VarRef(v), hi, lo)
		memo[reg] = r
		return r ^ (f & 1)
	}
	return cp(f)
}

// benchTransferSource builds a source manager with a moderately large
// function (a disjunction of variable pairs over 24 variables).
func benchTransferSource() (*Manager, Ref) {
	m := New()
	vars := m.NewVars("x", 24)
	f := Zero
	for i := 0; i < len(vars); i++ {
		f = m.Or(f, m.And(m.VarRef(vars[i]), m.VarRef(vars[(i+5)%len(vars)])))
	}
	return m, f
}

// BenchmarkTransfer: generation-stamped slice memo versus the earlier
// per-call map memo. The "slice" case is the production path.
func BenchmarkTransfer(b *testing.B) {
	src, f := benchTransferSource()
	b.Run("slice", func(b *testing.B) {
		dst := newDest(src.NumVars())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if Transfer(dst, src, f, nil) == Zero {
				b.Fatal("unreachable")
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		dst := newDest(src.NumVars())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if mapTransfer(dst, src, f) == Zero {
				b.Fatal("unreachable")
			}
		}
	})
}
