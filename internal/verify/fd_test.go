package verify

import (
	"testing"

	"repro/internal/bdd"
	"repro/internal/fsm"
)

// parityMachine builds a w-bit counter that also maintains a parity bit
// alongside it. The functional dependency is parity == xor of the
// counter bits. bug, if true, breaks the parity update.
func parityMachine(t testing.TB, w int, bug bool) (Problem, *fsm.Machine) {
	t.Helper()
	m := bdd.New()
	ma := fsm.New(m)
	bits := ma.NewStateBits("c", w)
	parity := ma.NewStateBit("par")
	step := ma.NewInputBit("step")

	carry := m.VarRef(step)
	nextXor := bdd.Zero
	initSet := m.NVarRef(parity)
	for _, b := range bits {
		v := m.VarRef(b)
		nv := m.Xor(v, carry)
		ma.SetNext(b, nv)
		nextXor = m.Xor(nextXor, nv)
		carry = m.And(carry, v)
		initSet = m.And(initSet, v.Not())
	}
	if bug {
		// Forgets to flip on wraparound steps: uses xor of CURRENT bits.
		cur := bdd.Zero
		for _, b := range bits {
			cur = m.Xor(cur, m.VarRef(b))
		}
		ma.SetNext(parity, m.ITE(m.VarRef(step), cur, m.VarRef(parity)))
	} else {
		ma.SetNext(parity, nextXor)
	}
	ma.SetInit(initSet)
	ma.MustSeal()

	xorAll := bdd.Zero
	for _, b := range bits {
		xorAll = m.Xor(xorAll, m.VarRef(b))
	}
	return Problem{
		Machine: ma,
		Good:    m.Xnor(m.VarRef(parity), xorAll),
		Deps:    []Dependency{{Var: parity, Def: xorAll}},
		Name:    "parity",
	}, ma
}

func TestFDVerifiesParity(t *testing.T) {
	p, _ := parityMachine(t, 4, false)
	res := Run(p, FD, Options{})
	if res.Outcome != Verified {
		t.Fatalf("FD outcome %v (%s)", res.Outcome, res.Why)
	}
	// Cross-check against the other engines.
	for _, method := range []Method{Forward, Backward, XICI} {
		if r := Run(p, method, Options{}); r.Outcome != Verified {
			t.Fatalf("%s outcome %v", method, r.Outcome)
		}
	}
	// FD's reduced iterates must be smaller than plain forward's: the
	// dependent bit is projected away.
	fwd := Run(p, Forward, Options{})
	if res.PeakStateNodes > fwd.PeakStateNodes {
		t.Fatalf("FD peak %d above Forward peak %d", res.PeakStateNodes, fwd.PeakStateNodes)
	}
}

func TestFDCatchesBrokenDependency(t *testing.T) {
	p, ma := parityMachine(t, 4, true)
	res := Run(p, FD, Options{WantTrace: true})
	if res.Outcome != Violated {
		t.Fatalf("FD outcome %v, want violated", res.Outcome)
	}
	if res.Trace == nil {
		t.Fatal("FD violated without a trace")
	}
	if err := res.Trace.Validate(ma, []bdd.Ref{p.Good}); err != nil {
		t.Fatal(err)
	}
	// The bug is real: forward traversal agrees, at the same depth.
	if r := Run(p, Forward, Options{}); r.Outcome != Violated || r.ViolationDepth != res.ViolationDepth {
		t.Fatalf("Forward %v at depth %d, FD depth %d", r.Outcome, r.ViolationDepth, res.ViolationDepth)
	}
}

// TestFDCatchesNonInitialDependency seeds a machine whose initial state
// already breaks the declared dependency (parity starts at 1 under an
// all-zero counter), which here is also the property: FD must flag it
// at depth 0, with the one-state trace.
func TestFDCatchesNonInitialDependency(t *testing.T) {
	m := bdd.New()
	ma := fsm.New(m)
	bits := ma.NewStateBits("c", 3)
	parity := ma.NewStateBit("par")
	step := ma.NewInputBit("step")

	carry := m.VarRef(step)
	nextXor := bdd.Zero
	for _, b := range bits {
		v := m.VarRef(b)
		nv := m.Xor(v, carry)
		ma.SetNext(b, nv)
		nextXor = m.Xor(nextXor, nv)
		carry = m.And(carry, v)
	}
	ma.SetNext(parity, nextXor)

	badInit := m.VarRef(parity) // parity=1 while counter is 0: inconsistent
	for _, b := range bits {
		badInit = m.And(badInit, m.NVarRef(b))
	}
	ma.SetInit(badInit)
	ma.MustSeal()

	xorAll := bdd.Zero
	for _, b := range bits {
		xorAll = m.Xor(xorAll, m.VarRef(b))
	}
	p := Problem{
		Machine: ma,
		Good:    m.Xnor(m.VarRef(parity), xorAll),
		Deps:    []Dependency{{Var: parity, Def: xorAll}},
		Name:    "badInitParity",
	}
	res := Run(p, FD, Options{WantTrace: true})
	if res.Outcome != Violated || res.ViolationDepth != 0 {
		t.Fatalf("FD on broken init: %v depth %d", res.Outcome, res.ViolationDepth)
	}
	if res.Trace == nil || res.Trace.Len() != 0 {
		t.Fatalf("FD on broken init: trace %v, want one state", res.Trace)
	}
	if err := res.Trace.Validate(ma, []bdd.Ref{p.Good}); err != nil {
		t.Fatal(err)
	}
}

func TestFDWithoutDepsIsForward(t *testing.T) {
	p, _ := parityMachine(t, 3, false)
	noDeps := p
	noDeps.Deps = nil
	fd := Run(noDeps, FD, Options{})
	fwd := Run(noDeps, Forward, Options{})
	if fd.Outcome != fwd.Outcome || fd.Iterations != fwd.Iterations ||
		fd.PeakStateNodes != fwd.PeakStateNodes {
		t.Fatalf("FD without deps differs from Forward: %+v vs %+v", fd, fwd)
	}
}

func TestFDRejectsCyclicDependencies(t *testing.T) {
	p, ma := parityMachine(t, 3, false)
	m := ma.M
	// Define the dependency in terms of itself: illegal.
	p.Deps = []Dependency{{Var: p.Deps[0].Var, Def: m.VarRef(p.Deps[0].Var)}}
	res := Run(p, FD, Options{})
	if res.Outcome != Exhausted {
		t.Fatalf("cyclic dependency: outcome %v, want exhausted with error", res.Outcome)
	}
}
