package verify

import (
	"testing"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/fsm"
	"repro/internal/resource"
)

// tinyFIFO builds a small typed shift-register FIFO: `depth` slots of
// `width` bits; each cycle the input word (constrained to <= bound)
// shifts in. Property: every slot <= bound. bug, if true, breaks the
// constraint wiring on slot 0 so over-bound values enter.
func tinyFIFO(t testing.TB, width, depth int, bound uint64, bug bool) (Problem, *fsm.Machine) {
	t.Helper()
	m := bdd.New()
	ma := fsm.New(m)

	in := make([]bdd.Var, width)
	slots := make([][]bdd.Var, depth)
	for d := range slots {
		slots[d] = make([]bdd.Var, width)
	}
	// Interleaved ordering: bit b of input, then bit b of each slot.
	for b := 0; b < width; b++ {
		in[b] = ma.NewInputBit("in" + string(rune('0'+b)))
		for d := 0; d < depth; d++ {
			slots[d][b] = ma.NewStateBit("s" + string(rune('0'+d)) + "b" + string(rune('0'+b)))
		}
	}

	inWord := expr.FromVars(m, in)
	if !bug {
		ma.AddInputConstraint(expr.LeConst(inWord, bound))
	}
	for b := 0; b < width; b++ {
		ma.SetNext(slots[0][b], m.VarRef(in[b]))
		for d := 1; d < depth; d++ {
			ma.SetNext(slots[d][b], m.VarRef(slots[d-1][b]))
		}
	}
	initSet := bdd.One
	for d := 0; d < depth; d++ {
		for b := 0; b < width; b++ {
			initSet = m.And(initSet, m.NVarRef(slots[d][b]))
		}
	}
	ma.SetInit(initSet)
	ma.MustSeal()

	goodList := make([]bdd.Ref, depth)
	for d := 0; d < depth; d++ {
		goodList[d] = expr.LeConst(expr.FromVars(m, slots[d]), bound)
	}
	return Problem{
		Machine:  ma,
		GoodList: goodList,
		Name:     "tinyFIFO",
	}, ma
}

func TestAllMethodsVerifyTypedFIFO(t *testing.T) {
	p, _ := tinyFIFO(t, 3, 3, 5, false)
	for _, method := range []Method{Forward, Backward, ICI, XICI} {
		res := Run(p, method, Options{})
		if res.Outcome != Verified {
			t.Fatalf("%s: outcome %v (%s)", method, res.Outcome, res.Why)
		}
		if res.PeakStateNodes <= 0 {
			t.Fatalf("%s: no peak node count", method)
		}
		if res.MemBytes <= 0 || res.Elapsed < 0 {
			t.Fatalf("%s: missing stats", method)
		}
	}
}

func TestAllMethodsCatchBugWithValidTrace(t *testing.T) {
	p, ma := tinyFIFO(t, 3, 3, 5, true)
	var depths []int
	for _, method := range []Method{Forward, Backward, ICI, XICI} {
		res := Run(p, method, Options{WantTrace: true})
		if res.Outcome != Violated {
			t.Fatalf("%s: outcome %v, want violated", method, res.Outcome)
		}
		if res.Trace == nil {
			t.Fatalf("%s: no trace", method)
		}
		if err := res.Trace.Validate(ma, p.goodList()); err != nil {
			t.Fatalf("%s: invalid trace: %v", method, err)
		}
		depths = append(depths, res.ViolationDepth)
	}
	// All violation depths agree (shortest counterexample length).
	for _, d := range depths[1:] {
		if d != depths[0] {
			t.Fatalf("violation depths disagree: %v", depths)
		}
	}
}

func TestICISingletonDegeneratesToBackward(t *testing.T) {
	p, _ := tinyFIFO(t, 2, 3, 2, false)
	mono := Problem{Machine: p.Machine, Good: p.good(), Name: p.Name}
	bres := Run(mono, Backward, Options{})
	ires := Run(mono, ICI, Options{}) // no GoodList: singleton fallback
	if bres.Outcome != Verified || ires.Outcome != Verified {
		t.Fatalf("outcomes: %v %v", bres.Outcome, ires.Outcome)
	}
	if bres.Iterations != ires.Iterations {
		t.Fatalf("iterations differ: Bkwd %d, ICI-singleton %d", bres.Iterations, ires.Iterations)
	}
	if bres.PeakStateNodes != ires.PeakStateNodes {
		t.Fatalf("peak nodes differ: Bkwd %d, ICI-singleton %d", bres.PeakStateNodes, ires.PeakStateNodes)
	}
}

func TestXICIStaysImplicit(t *testing.T) {
	// On the typed FIFO, the implicit methods must keep the per-iterate
	// node count below the monolithic backward traversal's.
	p, _ := tinyFIFO(t, 4, 5, 9, false)
	bk := Run(p, Backward, Options{})
	xi := Run(p, XICI, Options{})
	if bk.Outcome != Verified || xi.Outcome != Verified {
		t.Fatalf("outcomes: %v %v", bk.Outcome, xi.Outcome)
	}
	if xi.PeakStateNodes >= bk.PeakStateNodes {
		t.Fatalf("XICI peak %d not below monolithic backward peak %d",
			xi.PeakStateNodes, bk.PeakStateNodes)
	}
	if len(xi.PeakProfile) < 2 {
		t.Fatalf("XICI did not keep an implicit conjunction: profile %v", xi.PeakProfile)
	}
}

func TestXICITerminationModesAgree(t *testing.T) {
	for _, bug := range []bool{false, true} {
		p, _ := tinyFIFO(t, 3, 2, 4, bug)
		want := Verified
		if bug {
			want = Violated
		}
		for _, mode := range []TerminationMode{TermExact, TermImplication, TermFast} {
			res := Run(p, XICI, Options{Termination: mode})
			if res.Outcome != want {
				t.Fatalf("mode %d on bug=%v: outcome %v, want %v", mode, bug, res.Outcome, want)
			}
		}
	}
}

func TestXICIFromMonolithicProperty(t *testing.T) {
	// No partition supplied: XICI must still verify, forming its own
	// implicit conjunction — the paper's headline capability.
	p, _ := tinyFIFO(t, 3, 4, 5, false)
	mono := Problem{Machine: p.Machine, Good: p.good(), Name: p.Name}
	res := Run(mono, XICI, Options{})
	if res.Outcome != Verified {
		t.Fatalf("outcome %v (%s)", res.Outcome, res.Why)
	}
}

func TestNodeLimitExhaustion(t *testing.T) {
	p, _ := tinyFIFO(t, 4, 4, 9, false)
	res := Run(p, Forward, Options{Budget: resource.Budget{NodeLimit: 50}})
	if res.Outcome != Exhausted {
		t.Fatalf("outcome %v, want exhausted", res.Outcome)
	}
	if res.Why == "" {
		t.Fatal("no exhaustion reason")
	}
	// The manager must be reusable: the same problem at a workable limit.
	res2 := Run(p, Forward, Options{})
	if res2.Outcome != Verified {
		t.Fatalf("manager unusable after exhaustion: %v (%s)", res2.Outcome, res2.Why)
	}
}

func TestTimeoutExhaustion(t *testing.T) {
	p, _ := tinyFIFO(t, 3, 4, 5, false)
	res := Run(p, Backward, Options{Budget: resource.Budget{Timeout: time.Nanosecond}})
	if res.Outcome != Exhausted {
		t.Fatalf("outcome %v, want exhausted on timeout", res.Outcome)
	}
}

func TestIterationBoundExhaustion(t *testing.T) {
	p, _ := tinyFIFO(t, 2, 4, 2, false)
	res := Run(p, Forward, Options{Budget: resource.Budget{MaxIterations: 1}})
	if res.Outcome != Exhausted {
		t.Fatalf("outcome %v, want exhausted on iteration bound", res.Outcome)
	}
}

func TestReachableStates(t *testing.T) {
	p, ma := tinyFIFO(t, 2, 2, 2, false)
	reach, iters, err := ReachableStates(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if iters <= 0 {
		t.Fatal("converged with no iterations?")
	}
	m := ma.M
	// Reachability invariants: contains init, closed under Image, and
	// every reachable slot value respects the type bound.
	if !m.Implies(ma.Init(), reach) {
		t.Fatal("reachable set misses init")
	}
	if !m.Implies(ma.Image(reach), reach) {
		t.Fatal("reachable set not closed under image")
	}
	if !m.Implies(reach, p.good()) {
		t.Fatal("reachable set violates the (true) property")
	}
	// Bounded ReachableStates errors out.
	if _, _, err := ReachableStates(p, Options{Budget: resource.Budget{MaxIterations: 1}}); err == nil {
		t.Fatal("iteration-bounded reachability did not error")
	}
}

func TestXICICoreOptionVariants(t *testing.T) {
	p, _ := tinyFIFO(t, 3, 3, 5, false)
	variants := []core.Options{
		{},
		{GrowThreshold: 1.1},
		{GrowThreshold: 3},
		{Simplifier: bdd.UseConstrain},
		{SkipEvaluate: true},
		{SkipSimplify: true},
	}
	for _, v := range variants {
		res := Run(p, XICI, Options{Core: v})
		if res.Outcome != Verified {
			t.Fatalf("core options %+v: outcome %v (%s)", v, res.Outcome, res.Why)
		}
	}
}

func TestResultString(t *testing.T) {
	p, _ := tinyFIFO(t, 2, 2, 2, false)
	if s := Run(p, XICI, Options{}).String(); s == "" {
		t.Fatal("empty verified row")
	}
	if s := Run(p, Forward, Options{Budget: resource.Budget{NodeLimit: 40}}).String(); s == "" {
		t.Fatal("empty exhausted row")
	}
	pb, _ := tinyFIFO(t, 2, 2, 2, true)
	if s := Run(pb, Forward, Options{}).String(); s == "" {
		t.Fatal("empty violated row")
	}
}

func TestUnknownMethodPanics(t *testing.T) {
	p, _ := tinyFIFO(t, 2, 2, 2, false)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown method did not panic")
		}
	}()
	Run(p, Method("nope"), Options{})
}

// TestCtxTerminationWiring: every Options termination knob must reach the
// core.Termination an engine obtains from the harness — in particular the
// SkipStep3 ablation flag, which is not observable from counter totals on
// the small models.
func TestCtxTerminationWiring(t *testing.T) {
	p, _ := tinyFIFO(t, 1, 2, 0, false)
	opt := Options{
		TermVarChoice: core.VarMostCommonTop,
		TermSkipStep3: true,
		Core:          core.Options{Simplifier: bdd.UseConstrain},
	}
	c := newCtx(p, opt, resource.Budget{}.Norm().Start(time.Now()))
	term := c.Termination()
	if term.M != p.Machine.M {
		t.Error("Termination not bound to the problem's manager")
	}
	if !term.SkipStep3 {
		t.Error("TermSkipStep3 not wired through to core.Termination")
	}
	if term.VarChoice != core.VarMostCommonTop {
		t.Error("TermVarChoice not wired through")
	}
	if term.Simplifier != bdd.UseConstrain {
		t.Error("Core.Simplifier not wired through")
	}
	if term.Stats != &c.term {
		t.Error("Termination stats not wired to the harness sink")
	}
}
