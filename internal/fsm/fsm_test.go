package fsm

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
)

// buildCounter builds a w-bit counter that increments when the input
// `step` is high and wraps around, starting at zero.
func buildCounter(t testing.TB, w int) (*Machine, []bdd.Var, bdd.Var) {
	t.Helper()
	m := bdd.New()
	ma := New(m)
	bits := ma.NewStateBits("c", w)
	step := ma.NewInputBit("step")

	carry := m.VarRef(step)
	initSet := bdd.One
	for _, b := range bits {
		v := m.VarRef(b)
		ma.SetNext(b, m.Xor(v, carry))
		carry = m.And(carry, v)
		initSet = m.And(initSet, v.Not())
	}
	ma.SetInit(initSet)
	if err := ma.Seal(); err != nil {
		t.Fatal(err)
	}
	return ma, bits, step
}

// stateSetOf builds the characteristic function of a set of counter values.
func stateSetOf(m *bdd.Manager, bits []bdd.Var, values ...uint) bdd.Ref {
	set := bdd.Zero
	for _, val := range values {
		cube := bdd.One
		for i, b := range bits {
			v := m.VarRef(b)
			if val&(1<<uint(i)) == 0 {
				v = v.Not()
			}
			cube = m.And(cube, v)
		}
		set = m.Or(set, cube)
	}
	return set
}

func TestCounterImages(t *testing.T) {
	ma, bits, _ := buildCounter(t, 3)
	m := ma.M

	// From {2}: staying (step=0) or stepping (step=1) reaches {2, 3}.
	from2 := stateSetOf(m, bits, 2)
	if got := ma.Image(from2); got != stateSetOf(m, bits, 2, 3) {
		t.Fatalf("Image({2}) wrong: %s", m.String(got))
	}
	// PreImage({3}): states with SOME successor 3: {2 (step), 3 (hold)}.
	if got := ma.PreImage(stateSetOf(m, bits, 3)); got != stateSetOf(m, bits, 2, 3) {
		t.Fatalf("PreImage({3}) wrong: %s", m.String(got))
	}
	// BackImage({3}): ALL successors in {3}: no state qualifies (hold
	// keeps 3 in 3 but step leaves; 2 can hold at 2).
	if got := ma.BackImage(stateSetOf(m, bits, 3)); got != bdd.Zero {
		t.Fatalf("BackImage({3}) wrong: %s", m.String(got))
	}
	// BackImage({2,3}): from 2, both hold and step stay inside; from 3,
	// step goes to 4 — so exactly {2}... and from 1, step->2 but hold->1.
	if got := ma.BackImage(stateSetOf(m, bits, 2, 3)); got != stateSetOf(m, bits, 2) {
		t.Fatalf("BackImage({2,3}) wrong: %s", m.String(got))
	}
	// Wraparound: Image({7}) = {7, 0}.
	if got := ma.Image(stateSetOf(m, bits, 7)); got != stateSetOf(m, bits, 7, 0) {
		t.Fatalf("Image({7}) wrong: %s", m.String(got))
	}
}

func TestBackImageEqualsNotPreNot(t *testing.T) {
	ma, bits, _ := buildCounter(t, 4)
	m := ma.M
	rng := rand.New(rand.NewSource(91))
	for iter := 0; iter < 40; iter++ {
		var vals []uint
		for v := uint(0); v < 16; v++ {
			if rng.Intn(2) == 0 {
				vals = append(vals, v)
			}
		}
		z := stateSetOf(m, bits, vals...)
		if ma.BackImage(z) != ma.PreImage(z.Not()).Not() {
			t.Fatal("BackImage != ¬PreImage¬")
		}
	}
}

// TestImagesAgainstMonolithicRelation cross-checks the partitioned /
// compositional operators against the textbook definition computed from
// the monolithic transition relation.
func TestImagesAgainstMonolithicRelation(t *testing.T) {
	ma, bits, _ := buildCounter(t, 3)
	m := ma.M
	tau := ma.TransitionRelation() // over cur, next
	curCube := ma.StateCube()
	nextVars := make([]bdd.Var, len(bits))
	for i, b := range bits {
		nextVars[i] = ma.NextVar(b)
	}
	nextCube := m.MkCube(nextVars)

	rng := rand.New(rand.NewSource(92))
	for iter := 0; iter < 30; iter++ {
		var vals []uint
		for v := uint(0); v < 8; v++ {
			if rng.Intn(2) == 0 {
				vals = append(vals, v)
			}
		}
		z := stateSetOf(m, bits, vals...)
		zNext := m.Rename(z, bits, nextVars)

		// Image: ∃cur. Z(cur) ∧ τ(cur,next), renamed back.
		wantImg := m.Rename(m.AndExists(z, tau, curCube), nextVars, bits)
		if got := ma.Image(z); got != wantImg {
			t.Fatalf("Image mismatch on iter %d", iter)
		}
		// PreImage: ∃next. τ ∧ Z(next).
		wantPre := m.AndExists(tau, zNext, nextCube)
		if got := ma.PreImage(z); got != wantPre {
			t.Fatalf("PreImage mismatch on iter %d", iter)
		}
		// BackImage: ∀next. τ ⇒ Z(next).
		wantBack := m.ForAll(m.Imp(tau, zNext), nextCube)
		if got := ma.BackImage(z); got != wantBack {
			t.Fatalf("BackImage mismatch on iter %d", iter)
		}
	}
}

// TestTheorem1 checks BackImage(τ, Y ∧ Z) == BackImage(τ, Y) ∧
// BackImage(τ, Z) — the enabling fact of the whole method.
func TestTheorem1(t *testing.T) {
	ma, bits, _ := buildCounter(t, 4)
	m := ma.M
	rng := rand.New(rand.NewSource(93))
	for iter := 0; iter < 30; iter++ {
		var v1, v2 []uint
		for v := uint(0); v < 16; v++ {
			if rng.Intn(2) == 0 {
				v1 = append(v1, v)
			}
			if rng.Intn(2) == 0 {
				v2 = append(v2, v)
			}
		}
		y := stateSetOf(m, bits, v1...)
		z := stateSetOf(m, bits, v2...)
		lhs := ma.BackImage(m.And(y, z))
		rhs := m.And(ma.BackImage(y), ma.BackImage(z))
		if lhs != rhs {
			t.Fatalf("Theorem 1 violated on iter %d", iter)
		}
	}
	// And the list form.
	y := stateSetOf(m, bits, 1, 2, 3, 9)
	z := stateSetOf(m, bits, 2, 3, 4)
	outs := ma.BackImageList([]bdd.Ref{y, z})
	if len(outs) != 2 || outs[0] != ma.BackImage(y) || outs[1] != ma.BackImage(z) {
		t.Fatal("BackImageList inconsistent with BackImage")
	}
}

func TestInputConstraint(t *testing.T) {
	// Counter whose step input is forced high: it always increments.
	m := bdd.New()
	ma := New(m)
	bits := ma.NewStateBits("c", 3)
	step := ma.NewInputBit("step")
	carry := m.VarRef(step)
	for _, b := range bits {
		v := m.VarRef(b)
		ma.SetNext(b, m.Xor(v, carry))
		carry = m.And(carry, v)
	}
	ma.SetInit(stateSetOf(m, bits, 0))
	ma.AddInputConstraint(m.VarRef(step))
	if err := ma.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := ma.Image(stateSetOf(m, bits, 2)); got != stateSetOf(m, bits, 3) {
		t.Fatalf("constrained Image wrong: %s", m.String(got))
	}
	// With the constraint, every state's sole successor is value+1, so
	// BackImage({3}) = {2}.
	if got := ma.BackImage(stateSetOf(m, bits, 3)); got != stateSetOf(m, bits, 2) {
		t.Fatalf("constrained BackImage wrong: %s", m.String(got))
	}
}

func TestStepSimulation(t *testing.T) {
	ma, bits, step := buildCounter(t, 3)
	m := ma.M
	a := make([]bool, m.NumVars())
	// State 3 (bits 0,1 set), stepping.
	a[bits[0]], a[bits[1]], a[step] = true, true, true
	next, err := ma.Step(a)
	if err != nil {
		t.Fatal(err)
	}
	if next[bits[0]] || next[bits[1]] || !next[bits[2]] {
		t.Fatalf("3+1 != 4 in simulation: %v", next)
	}
	// Holding keeps the state.
	a[step] = false
	next, err = ma.Step(a)
	if err != nil {
		t.Fatal(err)
	}
	if !next[bits[0]] || !next[bits[1]] || next[bits[2]] {
		t.Fatal("hold changed the state")
	}
}

func TestStepRejectsConstraintViolation(t *testing.T) {
	m := bdd.New()
	ma := New(m)
	b := ma.NewStateBit("s")
	in := ma.NewInputBit("i")
	ma.SetNext(b, m.VarRef(in))
	ma.SetInit(m.NVarRef(b))
	ma.AddInputConstraint(m.NVarRef(in))
	if err := ma.Seal(); err != nil {
		t.Fatal(err)
	}
	a := make([]bool, m.NumVars())
	a[in] = true
	if _, err := ma.Step(a); err == nil {
		t.Fatal("Step accepted a constraint-violating input")
	}
}

func TestPickTransitionInto(t *testing.T) {
	ma, bits, step := buildCounter(t, 3)
	m := ma.M
	from := make([]bool, m.NumVars())
	from[bits[1]] = true // state 2
	to, ok := ma.PickTransitionInto(from, stateSetOf(m, bits, 3))
	if !ok {
		t.Fatal("no transition 2 -> 3 found")
	}
	if !to[step] {
		t.Fatal("transition into 3 must step")
	}
	next, err := ma.Step(to)
	if err != nil {
		t.Fatal(err)
	}
	if !next[bits[0]] || !next[bits[1]] || next[bits[2]] {
		t.Fatalf("simulated successor is not 3: %v", next)
	}
	// Unreachable in one step: 2 -> 5.
	if _, ok := ma.PickTransitionInto(from, stateSetOf(m, bits, 5)); ok {
		t.Fatal("found impossible transition 2 -> 5")
	}
}

func TestSealValidation(t *testing.T) {
	m := bdd.New()
	ma := New(m)
	if err := ma.Seal(); err == nil {
		t.Fatal("sealing an empty machine must fail")
	}

	ma2 := New(m)
	ma2.NewStateBit("s")
	if err := ma2.Seal(); err == nil {
		t.Fatal("missing next-state function not detected")
	}

	ma3 := New(m)
	s := ma3.NewStateBit("s")
	ma3.SetNext(s, m.VarRef(ma3.NextVar(s))) // illegal: depends on next var
	ma3.SetInit(m.NVarRef(s))
	if err := ma3.Seal(); err == nil {
		t.Fatal("next-state function over next-state variable not detected")
	}

	ma4 := New(m)
	s4 := ma4.NewStateBit("s")
	in4 := ma4.NewInputBit("i")
	ma4.SetNext(s4, m.VarRef(in4))
	ma4.SetInit(m.VarRef(in4)) // illegal: init over inputs
	if err := ma4.Seal(); err == nil {
		t.Fatal("init over input variable not detected")
	}
}

func TestSealedImmutable(t *testing.T) {
	ma, bits, _ := buildCounter(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("mutating a sealed machine did not panic")
		}
	}()
	ma.SetNext(bits[0], bdd.One)
}

func TestUnsealedUsePanics(t *testing.T) {
	m := bdd.New()
	ma := New(m)
	s := ma.NewStateBit("s")
	ma.SetNext(s, m.VarRef(s))
	ma.SetInit(m.NVarRef(s))
	defer func() {
		if recover() == nil {
			t.Fatal("using an unsealed machine did not panic")
		}
	}()
	ma.Image(bdd.One)
}

func TestProtectSurvivesGC(t *testing.T) {
	ma, bits, _ := buildCounter(t, 4)
	m := ma.M
	// Make garbage, then collect from the machine's roots alone.
	r := stateSetOf(m, bits, 1, 5, 9)
	for i := 0; i < 5; i++ {
		r = ma.Image(r)
	}
	if m.GC(ma.Roots()...) == 0 {
		t.Fatal("GC freed nothing despite garbage")
	}
	// Machine still functions correctly after GC.
	if got := ma.Image(stateSetOf(m, bits, 2)); got != stateSetOf(m, bits, 2, 3) {
		t.Fatal("machine broken after GC")
	}
}

func TestVarAccessors(t *testing.T) {
	ma, bits, _ := buildCounter(t, 2)
	if ma.StateBits() != 2 || ma.InputBits() != 1 {
		t.Fatal("bit counts wrong")
	}
	if len(ma.CurVars()) != 2 || len(ma.InputVars()) != 1 {
		t.Fatal("var lists wrong")
	}
	if ma.NextVar(bits[0]) != bits[0]+1 {
		t.Fatal("next var not adjacent to cur var")
	}
	if ma.NextFn(bits[0]) == bdd.Zero {
		t.Fatal("NextFn lookup failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NextVar of non-state var did not panic")
		}
	}()
	ma.NextVar(ma.InputVars()[0])
}
