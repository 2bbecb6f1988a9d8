package bdd

// Go-native fuzz targets checking the core operators against a
// truth-table oracle. Each input is interpreted as a stack-machine
// program over fuzzVars variables; alongside every Ref the interpreter
// maintains the function's full truth table as a uint32 bitmap (one bit
// per assignment), so any operator can be checked against plain bit
// arithmetic on all 2^fuzzVars points at once.
//
// Run one target with `go test -fuzz FuzzAnd ./internal/bdd`; the CI
// smoke job runs each for a few seconds per PR.

import (
	"testing"
)

const fuzzVars = 5 // 32 assignments; tables fit a uint32

// fuzzFormula interprets data as a stack program and returns a formula
// with its truth table. Opcodes (mod 8): 0-2 push a variable or its
// complement, 3 AND, 4 OR, 5 XOR, 6 NOT, 7 push a constant. The stack is
// folded with AND at the end so every program yields one formula.
func fuzzFormula(m *Manager, vars []Var, data []byte) (Ref, uint32) {
	// table(v): bitmap of assignments where variable v is true.
	// Assignment index k sets variable i to bit i of k.
	varTable := func(i int) uint32 {
		var t uint32
		for k := uint32(0); k < 32; k++ {
			if k&(1<<uint(i)) != 0 {
				t |= 1 << k
			}
		}
		return t
	}

	type entry struct {
		f Ref
		t uint32
	}
	var stack []entry
	push := func(f Ref, t uint32) { stack = append(stack, entry{f, t}) }
	for _, b := range data {
		switch op := b % 8; op {
		case 0, 1, 2:
			i := int(b/8) % fuzzVars
			push(m.VarRef(vars[i]), varTable(i))
		case 3, 4, 5:
			if len(stack) < 2 {
				continue
			}
			x, y := stack[len(stack)-2], stack[len(stack)-1]
			stack = stack[:len(stack)-2]
			switch op {
			case 3:
				push(m.And(x.f, y.f), x.t&y.t)
			case 4:
				push(m.Or(x.f, y.f), x.t|y.t)
			case 5:
				push(m.Xor(x.f, y.f), x.t^y.t)
			}
		case 6:
			if len(stack) == 0 {
				continue
			}
			top := &stack[len(stack)-1]
			top.f = top.f.Not()
			top.t = ^top.t
		case 7:
			if b/8%2 == 0 {
				push(One, ^uint32(0))
			} else {
				push(Zero, 0)
			}
		}
	}
	f, t := One, ^uint32(0)
	for _, e := range stack {
		f = m.And(f, e.f)
		t &= e.t
	}
	return f, t
}

// fuzzEvalTable recomputes a Ref's truth table through Eval, the
// independent point-wise interpreter.
func fuzzEvalTable(m *Manager, f Ref) uint32 {
	asg := make([]bool, fuzzVars)
	var t uint32
	for k := uint32(0); k < 32; k++ {
		for i := range asg {
			asg[i] = k&(1<<uint(i)) != 0
		}
		if m.Eval(f, asg) {
			t |= 1 << k
		}
	}
	return t
}

func fuzzManager() (*Manager, []Var) {
	m := New()
	return m, m.NewVars("x", fuzzVars)
}

// testPrograms are deterministic byte programs (see fuzzFormula) used
// to populate managers with moderately interesting functions.
var testPrograms = [][]byte{
	{0, 8, 3, 16, 4},
	{0, 8, 4, 16, 5, 24, 3},
	{7, 15, 3, 0, 6, 32, 4},
	{1, 9, 17, 4, 4, 25, 5},
	{2, 10, 5, 18, 3, 26, 4, 34, 5},
	{0, 16, 5, 8, 6, 3},
	{33, 25, 4, 17, 3, 9, 5},
	{4, 12, 20, 3, 3, 28, 4},
}

// splitCorpus seeds shared by all targets: empty, single pushes, and a
// few operator mixes.
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0}, []byte{8})
	f.Add([]byte{0, 8, 3}, []byte{16, 6})
	f.Add([]byte{0, 8, 4, 16, 5}, []byte{0, 14, 7, 3})
	f.Add([]byte{7, 15, 3, 0, 6}, []byte{1, 9, 17, 4, 4})
}

// FuzzAnd: And agrees with table intersection, and the result's own
// table (via Eval) matches too.
func FuzzAnd(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		m, vars := fuzzManager()
		defer m.Close() // each input's tables go back at once, not at the next GC
		fa, ta := fuzzFormula(m, vars, a)
		fb, tb := fuzzFormula(m, vars, b)
		r := m.And(fa, fb)
		if got, want := fuzzEvalTable(m, r), ta&tb; got != want {
			t.Fatalf("And table %08x, want %08x", got, want)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzOr: Or agrees with table union; De Morgan cross-check for free.
func FuzzOr(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		m, vars := fuzzManager()
		defer m.Close() // each input's tables go back at once, not at the next GC
		fa, ta := fuzzFormula(m, vars, a)
		fb, tb := fuzzFormula(m, vars, b)
		r := m.Or(fa, fb)
		if got, want := fuzzEvalTable(m, r), ta|tb; got != want {
			t.Fatalf("Or table %08x, want %08x", got, want)
		}
		if dm := m.And(fa.Not(), fb.Not()).Not(); dm != r {
			t.Fatalf("De Morgan violated: %v != %v", dm, r)
		}
	})
}

// FuzzRestrict: the restrict simplification must agree with f on the
// care set c (its only contract), and Constrain likewise.
func FuzzRestrict(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		m, vars := fuzzManager()
		defer m.Close() // each input's tables go back at once, not at the next GC
		ff, tf := fuzzFormula(m, vars, a)
		fc, tc := fuzzFormula(m, vars, b)
		for _, s := range []Simplifier{UseRestrict, UseConstrain} {
			r := m.Simplify(s, ff, fc)
			if got := fuzzEvalTable(m, r); (got^tf)&tc != 0 {
				t.Fatalf("%v disagrees with f on the care set: f=%08x r=%08x c=%08x", s, tf, got, tc)
			}
		}
	})
}

// FuzzCofactorVar: both cofactors agree with the table with the variable
// forced, and the Shannon expansion rebuilds f exactly.
func FuzzCofactorVar(f *testing.F) {
	f.Add([]byte{}, byte(0))
	f.Add([]byte{0}, byte(1))
	f.Add([]byte{0, 8, 3}, byte(2))
	f.Add([]byte{0, 8, 4, 16, 5}, byte(4))
	f.Add([]byte{7, 15, 3, 0, 6}, byte(3))
	f.Fuzz(func(t *testing.T, a []byte, varByte byte) {
		m, vars := fuzzManager()
		defer m.Close() // each input's tables go back at once, not at the next GC
		ff, tf := fuzzFormula(m, vars, a)
		i := int(varByte) % fuzzVars
		v := vars[i]
		lo, hi := m.CofactorVar(ff, v)

		// Forced tables: value of f with x_i := 0 (resp. 1) at every point.
		bit := uint32(1) << uint(i)
		var tlo, thi uint32
		for k := uint32(0); k < 32; k++ {
			if tf&(1<<(k&^bit)) != 0 {
				tlo |= 1 << k
			}
			if tf&(1<<(k|bit)) != 0 {
				thi |= 1 << k
			}
		}
		if got := fuzzEvalTable(m, lo); got != tlo {
			t.Fatalf("low cofactor %08x, want %08x", got, tlo)
		}
		if got := fuzzEvalTable(m, hi); got != thi {
			t.Fatalf("high cofactor %08x, want %08x", got, thi)
		}
		if re := m.ITE(m.VarRef(v), hi, lo); re != ff {
			t.Fatalf("Shannon expansion does not rebuild f: %v != %v", re, ff)
		}
	})
}

// FuzzTransfer: shipping a BDD to a fresh manager preserves the
// function, and shipping it back lands on the identical Ref.
func FuzzTransfer(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		m, vars := fuzzManager()
		defer m.Close() // each input's tables go back at once, not at the next GC
		ff, tf := fuzzFormula(m, vars, a)
		fg, _ := fuzzFormula(m, vars, b)
		_ = fg // populate m beyond ff so Transfer walks a non-trivial table

		w := newDest(m.NumVars())
		defer w.Close()
		wf := Transfer(w, m, ff, nil)
		if got := fuzzEvalTable(w, wf); got != tf {
			t.Fatalf("transferred table %08x, want %08x", got, tf)
		}
		if back := Transfer(m, w, wf, nil); back != ff {
			t.Fatalf("round trip moved the Ref: %v != %v", back, ff)
		}
		if err := w.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
