package difftest

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/ir"
	"repro/internal/verify"
)

// shadowDefs are the definitions a shadow bit's dependency declares over
// two state bits: as IR, and as the value they take on concrete bits.
var shadowDefs = []struct {
	node func(a, b *ir.Node) *ir.Node
	eval func(a, b bool) bool
}{
	{ir.Xor, func(a, b bool) bool { return a != b }},
	{func(a, b *ir.Node) *ir.Node { return ir.And(a, b) }, func(a, b bool) bool { return a && b }},
	{func(a, b *ir.Node) *ir.Node { return ir.Or(a, ir.Not(b)) }, func(a, b bool) bool { return a || !b }},
}

// addShadow adds to mo a state bit "fdshadow" and the declaration
// (dep fdshadow DEF), DEF a random function of two of mo's state bits;
// half the time one of mo's next-state functions also reads the
// shadow. When holds, the shadow's next function is DEF applied to
// those two bits' next functions and its initial value is DEF of their
// initial values, so the declaration holds on every reachable state.
// Otherwise one of the two is wrong: the shadow runs a step late,
// negated, or from the wrong initial value. When read, the property
// gains the conjunct fdshadow ⇒ l for a random state literal l.
func addShadow(t *testing.T, mo *ir.Model, rng *rand.Rand, holds, read bool) {
	t.Helper()
	var states []*ir.State
	var goal *ir.Goal
	last, goods := 0, 0
	for i, d := range mo.Decls {
		switch d := d.(type) {
		case *ir.State:
			states = append(states, d)
			last = i
		case *ir.Goal:
			goal = d
		case *ir.Good:
			goods++
		}
	}
	if goal == nil {
		t.Fatalf("%s: BuildModel left no goal", mo.Name)
	}
	a, b := states[rng.Intn(len(states))], states[rng.Intn(len(states))]
	def := shadowDefs[rng.Intn(len(shadowDefs))]
	if rng.Intn(2) == 0 {
		// Another bit reads the shadow, so FD's reduced next-state
		// functions differ from the machine's own.
		r := states[rng.Intn(len(states))]
		r.Next = ir.Xor(r.Next, ir.And(ir.Var("fdshadow"), ir.Var(states[rng.Intn(len(states))].Name)))
	}
	shadow := &ir.State{Name: "fdshadow", Init: def.eval(a.Init, b.Init), Next: def.node(a.Next, b.Next)}
	declared := def.node(ir.Var(a.Name), ir.Var(b.Name))
	if !holds {
		switch rng.Intn(3) {
		case 0:
			shadow.Next = declared
		case 1:
			shadow.Next = ir.Not(shadow.Next)
		default:
			shadow.Init = !shadow.Init
		}
	}
	mo.Decls = append(mo.Decls[:last+1], append([]ir.Decl{shadow}, mo.Decls[last+1:]...)...)
	mo.Decls = append(mo.Decls, &ir.Dep{Name: shadow.Name, Def: declared})
	if !read {
		return
	}
	lit := ir.Var(states[rng.Intn(len(states))].Name)
	if rng.Intn(2) == 0 {
		lit = ir.Not(lit)
	}
	conj := ir.Imp(ir.Var(shadow.Name), lit)
	if goods > 0 {
		mo.Decls = append(mo.Decls, &ir.Good{Expr: conj})
	}
	goal.Expr = ir.And(goal.Expr, conj)
}

// TestFDMatchesOracleOnDependencies runs FD on random difftest machines
// that declare a dependency, the one path of FD that random instances
// (which never declare one) leave to plain forward traversal. Half the
// declarations hold; there FD must give the oracle's verdict and depth.
// A false declaration may instead end Exhausted with cause "other" (FD
// refutes it where the property holds). Every violation's trace must
// replay and have the oracle's depth.
func TestFDMatchesOracleOnDependencies(t *testing.T) {
	const want = 300
	rng := rand.New(rand.NewSource(1))
	var decided, refuted int
	verdicts := map[bool]int{}
	for draws := 0; decided < want; draws++ {
		if draws > 4*want {
			t.Fatalf("only %d of %d draws decided by the oracle", decided, draws)
		}
		p := RandomParams(rng)
		mo, err := BuildModel(p)
		if err != nil {
			t.Fatal(err)
		}
		holds := draws%2 == 0
		addShadow(t, mo, rng, holds, rng.Intn(2) == 0)
		prob, err := mo.Instantiate(bdd.New())
		if err != nil {
			t.Fatalf("%s: %v", mo.Name, err)
		}
		inst := Instance{Params: p, Model: mo, Problem: prob, Machine: prob.Machine}
		oracle := Oracle(inst, 0, 0)
		if !oracle.Decided {
			continue
		}
		decided++
		res := verify.Run(prob, verify.FD, verify.Options{WantTrace: true})
		agrees := res.Outcome != verify.Exhausted && (res.Outcome == verify.Violated) == oracle.Violated &&
			(!oracle.Violated || res.ViolationDepth == oracle.Depth)
		switch {
		case agrees:
			if holds {
				verdicts[oracle.Violated]++
			}
		case !holds && res.Outcome == verify.Exhausted && res.Cause() == "other":
			refuted++
		default:
			t.Errorf("%s (declaration holds: %v): FD %v depth %d (%s), oracle violated=%v depth %d",
				mo.Name, holds, res.Outcome, res.ViolationDepth, res.Why, oracle.Violated, oracle.Depth)
			continue
		}
		if res.Outcome == verify.Violated {
			if res.Trace == nil {
				t.Errorf("%s: violated without a trace", mo.Name)
			} else if err := res.Trace.Validate(inst.Machine, inst.goodList()); err != nil {
				t.Errorf("%s: %v", mo.Name, err)
			} else if res.Trace.Len() != res.ViolationDepth {
				t.Errorf("%s: trace length %d, depth %d", mo.Name, res.Trace.Len(), res.ViolationDepth)
			}
		}
	}
	// Both verdicts under true declarations, and refuted false ones, or
	// the generator went inert.
	if verdicts[true] == 0 || verdicts[false] == 0 || refuted == 0 {
		t.Fatalf("degenerate campaign: %d violated and %d verified with true declarations, %d refuted",
			verdicts[true], verdicts[false], refuted)
	}
	t.Logf("%d instances: %d violated and %d verified with true declarations, %d false ones refuted",
		decided, verdicts[true], verdicts[false], refuted)
}
