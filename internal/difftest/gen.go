// Package difftest is the differential fuzzing harness for the verify
// engines: it generates small seeded FSM + safety-property instances,
// runs every engine on each one, and compares the verdicts against each
// other and against a brute-force explicit-state oracle. Divergences are
// minimized by a delta-debugging shrinker into replayable seed files
// (see cmd/icifuzz).
//
// Everything in the package is deterministic in Params: the same Params
// value always produces the same instance, the same verdicts, and the
// same report bytes — timing never enters a report. That is what makes a
// seed file a complete reproduction recipe.
package difftest

import (
	"fmt"
	"math/rand"

	"repro/internal/bdd"
	"repro/internal/fsm"
	"repro/internal/fsmtk"
	"repro/internal/ir"
	"repro/internal/models"
	"repro/internal/verify"
)

// Instance kinds. Random machines probe the engine algebra broadly;
// the model mutations probe the paper's benchmark circuits (datapath
// constraints, assisting invariants, seeded bugs) at oracle-checkable
// sizes; fsm instances replay imported FSM-toolkit machines through
// the same differential driver.
const (
	KindRandom   = "random"
	KindFIFO     = "fifo"
	KindFilter   = "filter"
	KindPipeline = "pipeline"
	KindFSM      = "fsm"
)

// Params is the complete, JSON-serializable recipe for one instance.
// Generate is a pure function of this value. Fields are interpreted per
// Kind; irrelevant fields are ignored so the shrinker can zero them.
type Params struct {
	Seed int64  `json:"seed"`
	Kind string `json:"kind"`

	// Random-machine shape (KindRandom).
	StateBits  int  `json:"state_bits,omitempty"`
	InputBits  int  `json:"input_bits,omitempty"`
	Terms      int  `json:"terms,omitempty"`      // DNF terms per next-state function
	Parts      int  `json:"parts,omitempty"`      // good-list partition size (>= 1)
	Constraint bool `json:"constraint,omitempty"` // add a random input-literal constraint

	// ConstGood appends a constant-True conjunct to the partition,
	// exercising the normalization and degenerate-denominator paths of
	// the evaluation policy (any Kind).
	ConstGood bool `json:"const_good,omitempty"`

	// Model-mutation shape (KindFIFO, KindFilter, KindPipeline).
	Depth  int  `json:"depth,omitempty"`  // fifo depth / filter window / pipeline regs
	Width  int  `json:"width,omitempty"`  // fifo item bits / filter sample bits / pipeline datapath bits
	Bug    bool `json:"bug,omitempty"`    // seed the model's bug
	Assist bool `json:"assist,omitempty"` // user assisting partition

	// FSM is the inline FSM-toolkit `.fsm` JSON source (KindFSM): the
	// seed file carries the whole machine, so it replays anywhere.
	FSM string `json:"fsm,omitempty"`
}

// Instance is one generated verification task. The Problem and Machine
// live on their own fresh Manager; Model is the manager-independent IR
// it was instantiated from.
type Instance struct {
	Params  Params
	Model   *ir.Model
	Problem verify.Problem
	Machine *fsm.Machine
}

// BuildModel is the pure half of Generate: it lowers Params to the
// manager-independent IR without touching any manager. The IR already
// reflects the ConstGood normalization and the partition-derived goal,
// so instantiating it on any manager poses the identical question.
func BuildModel(p Params) (*ir.Model, error) {
	var mo *ir.Model
	switch p.Kind {
	case KindRandom:
		if p.StateBits < 1 || p.InputBits < 0 {
			return nil, fmt.Errorf("difftest: random machine needs state_bits >= 1 (got %+v)", p)
		}
		mo = genRandom(p)
	case KindFIFO:
		if p.Width < 1 || p.Depth < 1 {
			return nil, fmt.Errorf("difftest: fifo needs width, depth >= 1 (got %+v)", p)
		}
		mo = models.BuildFIFO(models.FIFOConfig{
			Width: p.Width,
			Depth: p.Depth,
			// Half-range bound keeps the type constraint non-trivial at
			// any width (the paper's 8-bit/128 shape, scaled down; at
			// width 1 items must be 0, and the bug lets 1 in).
			Bound: 1<<(uint(p.Width)-1) - 1,
			Bug:   p.Bug,
		})
	case KindFilter:
		d := p.Depth
		if d < 2 || d&(d-1) != 0 {
			return nil, fmt.Errorf("difftest: filter depth must be a power of two >= 2 (got %d)", d)
		}
		if p.Width < 1 {
			return nil, fmt.Errorf("difftest: filter needs width >= 1 (got %+v)", p)
		}
		mo = models.BuildFilter(models.FilterConfig{
			Depth: d, SampleWidth: p.Width, Assist: p.Assist, Bug: p.Bug,
		})
	case KindPipeline:
		if p.Depth < 1 || p.Width < 1 {
			return nil, fmt.Errorf("difftest: pipeline needs depth (regs), width >= 1 (got %+v)", p)
		}
		mo = models.BuildPipeline(models.PipelineConfig{
			Regs: p.Depth, Width: p.Width, Assist: p.Assist, Bug: p.Bug,
		})
	case KindFSM:
		if p.FSM == "" {
			return nil, fmt.Errorf("difftest: fsm kind needs inline .fsm source")
		}
		var err error
		mo, err = fsmtk.Import([]byte(p.FSM))
		if err != nil {
			return nil, fmt.Errorf("difftest: %w", err)
		}
	default:
		return nil, fmt.Errorf("difftest: unknown kind %q", p.Kind)
	}
	finishModel(mo, p)
	mo.Name = fmt.Sprintf("%s/seed=%d", p.Kind, p.Seed)
	return mo, nil
}

// finishModel applies the instance-level property normalizations in IR:
// the optional constant-True conjunct, and the re-derivation of the
// monolithic goal from the partition. A differential instance must pose
// the same question to every engine: the assisted models supply a
// partition strictly stronger than the monolithic property, so on a
// bugged model the implicit engines would legitimately find a shallower
// violation than the monolithic ones. With the goal re-derived as the
// conjunction of the partition (cheap at these sizes), verdict and
// depth must agree.
func finishModel(mo *ir.Model, p Params) {
	var goods []*ir.Node
	goalIdx := -1
	var goal *ir.Node
	for i, d := range mo.Decls {
		switch d := d.(type) {
		case *ir.Good:
			goods = append(goods, d.Expr)
		case *ir.Goal:
			goalIdx, goal = i, d.Expr
		}
	}
	if p.ConstGood {
		if len(goods) == 0 && goal != nil {
			// Promote the monolithic goal to a singleton partition so
			// the constant lands in a list, as the engines consume it.
			mo.Decls = append(mo.Decls, &ir.Good{Expr: goal})
			goods = append(goods, goal)
		}
		mo.Decls = append(mo.Decls, &ir.Good{Expr: ir.Bool(true)})
		goods = append(goods, ir.Bool(true))
	}
	if len(goods) > 0 {
		g := ir.And(goods...)
		if goalIdx >= 0 {
			mo.Decls[goalIdx] = &ir.Goal{Expr: g}
		} else {
			mo.Decls = append(mo.Decls, &ir.Goal{Expr: g})
		}
	}
}

// Generate builds the instance described by p on a fresh manager. It is
// deterministic: equal Params yield structurally identical instances
// (same variables in the same order, same Refs).
func Generate(p Params) (Instance, error) {
	mo, err := BuildModel(p)
	if err != nil {
		return Instance{}, err
	}
	m := bdd.New()
	prob, err := mo.Instantiate(m)
	if err != nil {
		m.Close()
		return Instance{}, fmt.Errorf("difftest: instantiating %s: %w", mo.Name, err)
	}
	return Instance{Params: p, Model: mo, Problem: prob, Machine: prob.Machine}, nil
}

// Close gives back the instance's manager; no Ref of the instance may
// be used afterwards.
func (i Instance) Close() { i.Machine.M.Close() }

// goodList returns the instance's property partition, falling back to
// the monolithic singleton — the list trace validation replays against.
func (i Instance) goodList() []bdd.Ref {
	if len(i.Problem.GoodList) > 0 {
		return i.Problem.GoodList
	}
	return []bdd.Ref{i.Problem.Good}
}

// genRandom mirrors the cross-validation generator of the verify tests:
// next-state functions are random k-term DNFs over all bits, the initial
// state is a single random state, and the property is the complement of
// a sparse random cube, partitioned into Parts conjuncts whose
// conjunction is exactly the property. The draw order (and therefore
// every instance any historical seed reproduces) is unchanged from the
// manager-based generator this replaces — the rng stream is part of the
// seed-file contract.
func genRandom(p Params) *ir.Model {
	rng := rand.New(rand.NewSource(p.Seed))
	b := ir.NewBuilder(KindRandom)

	state := make([]*ir.Node, p.StateBits)
	inputs := make([]*ir.Node, p.InputBits)
	for i := range state {
		state[i] = b.State(fmt.Sprintf("s%d", i), false)
	}
	for i := range inputs {
		inputs[i] = b.Input(fmt.Sprintf("x%d", i))
	}
	all := append(append([]*ir.Node(nil), state...), inputs...)

	terms := p.Terms
	if terms < 1 {
		terms = 3
	}
	randFn := func() *ir.Node {
		f := ir.Bool(false)
		for t := 0; t < terms; t++ {
			cube := ir.Bool(true)
			for _, v := range all {
				switch rng.Intn(3) {
				case 0:
					cube = ir.And(cube, v)
				case 1:
					cube = ir.And(cube, ir.Not(v))
				}
			}
			f = ir.Or(f, cube)
		}
		return f
	}
	for _, s := range state {
		b.SetNext(s, randFn())
	}

	if p.Constraint && len(inputs) > 0 {
		// A single input literal: always satisfiable, so no state
		// deadlocks; it halves the enabled input space.
		v := inputs[rng.Intn(len(inputs))]
		if rng.Intn(2) == 0 {
			b.Constrain(v)
		} else {
			b.Constrain(ir.Not(v))
		}
	}

	for _, s := range state {
		b.SetInit(s, rng.Intn(2) == 1)
	}

	// Property: complement of a sparse random set, so it holds on most
	// states and both verdicts occur across seeds.
	badCube := ir.Bool(true)
	for _, s := range state {
		switch rng.Intn(3) {
		case 0:
			badCube = ir.And(badCube, s)
		case 1:
			badCube = ir.And(badCube, ir.Not(s))
		}
	}
	good := ir.Not(badCube)

	parts := p.Parts
	if parts < 1 {
		parts = 1
	}
	b.Good(good)
	for k := 1; k < parts; k++ {
		// Each extra conjunct is implied by good, so the conjunction of
		// the partition is exactly good.
		lit := state[rng.Intn(len(state))]
		if rng.Intn(2) == 0 {
			lit = ir.Not(lit)
		}
		b.Good(ir.Or(good, lit))
	}

	return b.Build()
}

// RandomParams draws a random instance recipe: mostly random machines at
// oracle-checkable sizes, with a steady minority of mutated benchmark
// models. The instance seed is drawn from rng too, so a single icifuzz
// master seed determines the whole campaign.
func RandomParams(rng *rand.Rand) Params {
	p := Params{Seed: rng.Int63()}
	switch rng.Intn(10) {
	case 0: // fifo mutation
		p.Kind = KindFIFO
		p.Width = 1 + rng.Intn(2)
		p.Depth = 1 + rng.Intn(3)
		p.Bug = rng.Intn(2) == 0
	case 1: // filter mutation
		p.Kind = KindFilter
		p.Depth = 2 << rng.Intn(2) // 2 or 4
		p.Width = 1
		p.Assist = rng.Intn(2) == 0
		p.Bug = rng.Intn(3) == 0
	case 2: // pipeline mutation
		p.Kind = KindPipeline
		p.Depth = 2
		p.Width = 1 + rng.Intn(2)
		p.Assist = rng.Intn(2) == 0
		p.Bug = rng.Intn(3) == 0
	default:
		p.Kind = KindRandom
		p.StateBits = 2 + rng.Intn(5)
		p.InputBits = 1 + rng.Intn(3)
		p.Terms = 1 + rng.Intn(4)
		p.Parts = 1 + rng.Intn(3)
		p.Constraint = rng.Intn(4) == 0
		p.ConstGood = rng.Intn(8) == 0
	}
	_ = rng.Intn(4) // unused draw kept: bench/zipf.go takes models and engines from this rng, and icifuzz -seed N replays it
	return p
}
