package fsm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/difftest"
	"repro/internal/fsm"
	"repro/internal/verify"
	"repro/internal/zoo"
)

// The production backward chain skips the transition parts its
// accumulator cannot touch; these tests hold it to the full chain of
// export_test.go, Ref for Ref and node for node.

// backSteps is how many backward-traversal steps each target is driven.
const backSteps = 3

// goodList is the problem's property partition, or its monolithic
// property when it has none.
func goodList(p verify.Problem) []bdd.Ref {
	if len(p.GoodList) > 0 {
		return p.GoodList
	}
	return []bdd.Ref{p.Good}
}

// stateCube returns the cube of one state of the nonempty set s.
func stateCube(ma *fsm.Machine, s bdd.Ref) bdd.Ref {
	a := ma.PickState(s)
	lits := make([]bdd.Lit, 0, ma.StateBits())
	for _, c := range ma.CurVars() {
		lits = append(lits, bdd.Lit{Var: c, Val: a[c]})
	}
	return ma.M.CubeRef(lits)
}

// checkSameRefs drives a few backward-traversal steps from every good
// conjunct and from the initial set, and asserts that BackImage,
// PreImage and PreImageWithin each return the full chain's Ref.
func checkSameRefs(t *testing.T, name string, p verify.Problem) {
	t.Helper()
	ma, m := p.Machine, p.Machine.M
	list := goodList(p)
	zs := append([]bdd.Ref{ma.Init()}, list...)
	for step := 0; step < backSteps; step++ {
		for i, z := range zs {
			got, want := ma.BackImage(z), ma.FullBackImage(z)
			if got != want {
				t.Fatalf("%s: step %d target %d: BackImage differs from the full chain", name, step, i)
			}
			if ma.PreImage(z) != ma.FullPreImage(z) {
				t.Fatalf("%s: step %d target %d: PreImage differs from the full chain", name, step, i)
			}
			if ma.PreImageWithin(z.Not(), list) != ma.FullPreImageWithin(z.Not(), list) {
				t.Fatalf("%s: step %d target %d: PreImageWithin differs from the full chain", name, step, i)
			}
			if z != bdd.One {
				cube := stateCube(ma, z.Not())
				if ma.PreImageWithin(cube, list) != ma.FullPreImageWithin(cube, list) {
					t.Fatalf("%s: step %d target %d: PreImageWithin of a cube differs from the full chain", name, step, i)
				}
			}
			zs[i] = m.And(z, got)
		}
	}
}

// checkPeakNodes feeds two fresh instances of one model the same
// backward traversal, one through BackImage and one through the full
// chain, and asserts that the first's PeakNodes never exceeds the
// second's.
func checkPeakNodes(t *testing.T, name string, build func() verify.Problem) {
	t.Helper()
	skip, full := build(), build()
	zsSkip := append([]bdd.Ref{skip.Machine.Init()}, goodList(skip)...)
	zsFull := append([]bdd.Ref{full.Machine.Init()}, goodList(full)...)
	for step := 0; step < backSteps; step++ {
		for i := range zsSkip {
			zsSkip[i] = skip.Machine.M.And(zsSkip[i], skip.Machine.BackImage(zsSkip[i]))
			zsFull[i] = full.Machine.M.And(zsFull[i], full.Machine.FullBackImage(zsFull[i]))
			if a, b := skip.Machine.M.PeakNodes(), full.Machine.M.PeakNodes(); a > b {
				t.Fatalf("%s: step %d target %d: PeakNodes %d above the full chain's %d", name, step, i, a, b)
			}
		}
	}
}

// difftestParams covers random machines of every shape the generator
// draws, with and without input constraints, plus the mutated paper
// models RandomParams mixes in.
func difftestParams() []difftest.Params {
	var ps []difftest.Params
	for seed := int64(1); seed <= 60; seed++ {
		ps = append(ps, difftest.Params{
			Seed: seed, Kind: difftest.KindRandom,
			StateBits: 2 + int(seed%6), InputBits: 1 + int(seed%3),
			Terms: 1 + int(seed%4), Parts: 1 + int(seed%3),
			Constraint: seed%2 == 0,
		})
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		ps = append(ps, difftest.RandomParams(rng))
	}
	return ps
}

func generate(t *testing.T, p difftest.Params) verify.Problem {
	t.Helper()
	inst, err := difftest.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return inst.Problem
}

func TestPreChainMatchesFullChainDifftest(t *testing.T) {
	for _, p := range difftestParams() {
		p := p
		name := fmt.Sprintf("%s/seed%d", p.Kind, p.Seed)
		checkSameRefs(t, name, generate(t, p))
		checkPeakNodes(t, name, func() verify.Problem { return generate(t, p) })
	}
}

func TestPreChainMatchesFullChainZoo(t *testing.T) {
	for _, name := range zoo.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			e, _ := zoo.Get(name)
			build := func() verify.Problem {
				mo, err := e.Model(e.Sizes[0])
				if err != nil {
					t.Fatal(err)
				}
				p, err := mo.Instantiate(bdd.New())
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			checkSameRefs(t, name, build())
			checkPeakNodes(t, name, build)
		})
	}
}

// TestPreChainQuantifiesSkippedInputs: input x is last used by b's part.
// A target over c alone never reaches a's or b's part through next_a or
// next_b; without the constraint x never enters the accumulator and
// both parts are skipped, while the constraint x ⇒ c puts x there from
// the seed, so b's part must run to quantify it.
func TestPreChainQuantifiesSkippedInputs(t *testing.T) {
	for _, constrained := range []bool{false, true} {
		m := bdd.New()
		ma := fsm.New(m)
		a, b, c := ma.NewStateBit("a"), ma.NewStateBit("b"), ma.NewStateBit("c")
		x := ma.NewInputBit("x")
		ma.SetNext(a, m.Xor(m.VarRef(a), m.VarRef(x)))
		ma.SetNext(b, m.And(m.VarRef(b), m.VarRef(x)))
		ma.SetNext(c, m.Or(m.VarRef(c), m.VarRef(a)))
		if constrained {
			ma.AddInputConstraint(m.Or(m.NVarRef(x), m.VarRef(c)))
		}
		ma.SetInit(m.AndN(m.NVarRef(a), m.NVarRef(b), m.NVarRef(c)))
		ma.MustSeal()
		for _, z := range []bdd.Ref{m.VarRef(c), m.NVarRef(c), m.And(m.VarRef(c), m.VarRef(b))} {
			got, want := ma.PreImage(z), ma.FullPreImage(z)
			if got != want {
				t.Fatalf("constrained=%v: PreImage(%s) = %s, full chain %s",
					constrained, m.String(z), m.String(got), m.String(want))
			}
			for _, v := range m.Support(got) {
				if v == x {
					t.Fatalf("constrained=%v: PreImage(%s) still mentions the input", constrained, m.String(z))
				}
			}
		}
	}
}

// twoBlocks builds a 3-bit counter (block A) beside a bBits-bit rotating
// register (block B) that shares no variable with it; aFirst picks
// which block is declared first, and so sits higher in the order.
func twoBlocks(bBits int, aFirst bool) (*fsm.Machine, []bdd.Var) {
	m := bdd.New()
	ma := fsm.New(m)
	var as, bs []bdd.Var
	var step bdd.Var
	declareA := func() {
		as = ma.NewStateBits("a", 3)
		step = ma.NewInputBit("step")
	}
	if aFirst {
		declareA()
	}
	bs = ma.NewStateBits("b", bBits)
	if !aFirst {
		declareA()
	}
	carry := m.VarRef(step)
	initSet := bdd.One
	for _, v := range as {
		ma.SetNext(v, m.Xor(m.VarRef(v), carry))
		carry = m.And(carry, m.VarRef(v))
		initSet = m.And(initSet, m.NVarRef(v))
	}
	for i, v := range bs {
		ma.SetNext(v, m.VarRef(bs[(i+bBits-1)%bBits]))
		initSet = m.And(initSet, m.NVarRef(v))
	}
	ma.SetInit(initSet)
	ma.MustSeal()
	return ma, as
}

// TestBackImageCostIgnoresIndependentBlock: the back-image of a block-A
// conjunct costs the same number of cache lookups whether block B has
// 4 or 64 state bits, because none of B's parts can touch it.
func TestBackImageCostIgnoresIndependentBlock(t *testing.T) {
	for _, aFirst := range []bool{true, false} {
		lookups := make(map[int]uint64)
		for _, bBits := range []int{4, 64} {
			ma, as := twoBlocks(bBits, aFirst)
			m := ma.M
			z := m.Or(m.VarRef(as[0]), m.And(m.VarRef(as[1]), m.NVarRef(as[2])))
			before := m.Stats().CacheLookups
			got := ma.BackImage(z)
			lookups[bBits] = m.Stats().CacheLookups - before
			if got != ma.FullBackImage(z) {
				t.Fatalf("aFirst=%v bBits=%d: BackImage differs from the full chain", aFirst, bBits)
			}
		}
		if lookups[4] != lookups[64] {
			t.Fatalf("aFirst=%v: %d cache lookups beside 4 B bits, %d beside 64", aFirst, lookups[4], lookups[64])
		}
	}
}
