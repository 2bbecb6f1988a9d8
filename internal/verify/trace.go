package verify

import (
	"fmt"
	"strings"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/fsm"
)

// Trace is a concrete counterexample: a sequence of states from an
// initial state to a property violation, with the input choices driving
// each transition. Assignments are full (indexed by BDD level).
type Trace struct {
	// States holds k+1 state assignments s_0 .. s_k; s_0 is initial and
	// s_k violates the property.
	States [][]bool

	// Inputs holds the k input assignments; Inputs[i] drives the
	// transition s_i -> s_{i+1}. Each is a full assignment whose state
	// bits agree with States[i].
	Inputs [][]bool
}

// Len returns the number of transitions in the trace.
func (t *Trace) Len() int { return len(t.Inputs) }

// checkAssignment verifies that one assignment vector of the trace is
// long enough to be indexed by every manager variable. Assignments are
// captured at trace-construction time, so a manager that grew variables
// afterwards (a later model on the same manager)
// leaves the vectors short — indexing them blind would panic.
func checkAssignment(what string, i int, s []bool, nvars int) error {
	if len(s) < nvars {
		return fmt.Errorf("verify: trace %s %d has %d assignments but the manager declares %d variables (trace captured before variables were added?)",
			what, i, len(s), nvars)
	}
	return nil
}

// Format renders the trace, printing each state through the given
// variable list (typically the machine's state variables). It reports an
// error instead of panicking when a state vector is shorter than the
// manager's variable count.
func (t *Trace) Format(m *bdd.Manager, vars []bdd.Var) (string, error) {
	nvars := m.NumVars()
	var b strings.Builder
	for i, s := range t.States {
		if err := checkAssignment("state", i, s, nvars); err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "step %d:", i)
		for _, v := range vars {
			val := 0
			if s[v] {
				val = 1
			}
			fmt.Fprintf(&b, " %s=%d", m.VarName(v), val)
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// Validate replays the trace on the machine and confirms that it starts
// in an initial state, follows real transitions, and that the final state
// violates the given good-state list. It is used by tests and by the
// engines' own self-checks.
func (t *Trace) Validate(ma *fsm.Machine, goodList []bdd.Ref) error {
	m := ma.M
	if len(t.States) == 0 {
		return fmt.Errorf("verify: empty trace")
	}
	if len(t.Inputs) != len(t.States)-1 {
		return fmt.Errorf("verify: %d states but %d input vectors", len(t.States), len(t.Inputs))
	}
	// Every assignment must cover the manager's full variable range
	// before anything (Eval, the agreement checks below) indexes it.
	nvars := m.NumVars()
	for i, s := range t.States {
		if err := checkAssignment("state", i, s, nvars); err != nil {
			return err
		}
	}
	for i, in := range t.Inputs {
		if err := checkAssignment("input vector", i, in, nvars); err != nil {
			return err
		}
	}
	if !m.Eval(ma.Init(), t.States[0]) {
		return fmt.Errorf("verify: trace does not start in an initial state")
	}
	for i, in := range t.Inputs {
		// The input assignment must agree with the state it extends.
		for _, v := range ma.CurVars() {
			if in[v] != t.States[i][v] {
				return fmt.Errorf("verify: step %d input vector disagrees with state", i)
			}
		}
		next, err := ma.Step(in)
		if err != nil {
			return fmt.Errorf("verify: step %d: %v", i, err)
		}
		for _, v := range ma.CurVars() {
			if next[v] != t.States[i+1][v] {
				return fmt.Errorf("verify: step %d does not lead to recorded successor", i)
			}
		}
	}
	last := t.States[len(t.States)-1]
	for _, g := range goodList {
		if !m.Eval(g, last) {
			return nil // final state indeed violates the property
		}
	}
	return fmt.Errorf("verify: final trace state satisfies the property")
}

// stateCube builds the BDD cube pinning the machine's state bits to the
// values in the assignment.
func stateCube(ma *fsm.Machine, a []bool) bdd.Ref {
	lits := make([]bdd.Lit, len(ma.CurVars()))
	for i, v := range ma.CurVars() {
		lits[i] = bdd.Lit{Var: v, Val: a[v]}
	}
	return ma.M.CubeRef(lits)
}

// traceFromRings reconstructs a counterexample from forward onion rings
// rings[0..k], each a list of disjuncts (a monolithic ring is a
// one-element list), where rings[k] meets bad. It walks backwards: a
// state of rings[k] in bad, then at each step a predecessor of the last
// state inside the ring before. traceAlong then picks the inputs.
func traceFromRings(ma *fsm.Machine, rings [][]bdd.Ref, bad bdd.Ref) *Trace {
	m := ma.M
	k := len(rings) - 1
	states := make([][]bool, k+1)
	set := bad
	for i := k; i >= 0; i-- {
		for _, d := range rings[i] {
			if in := m.And(d, set); in != bdd.Zero {
				states[i] = m.SatAssignment(in)
				break
			}
		}
		if states[i] == nil {
			panic(fmt.Sprintf("verify: onion-ring invariant broken (no state in ring %d)", i))
		}
		// The cube of s_0 is built too, though no PreImage follows: on a
		// depth-0 violation nothing else builds it, and the node peak of
		// a traced run has always included it.
		target := stateCube(ma, states[i])
		if i > 0 {
			set = ma.PreImage(target)
		}
	}
	return traceAlong(ma, states)
}

// traceAlong turns a path of concrete states, initial state first, into
// a trace by choosing inputs that realize each of its transitions.
func traceAlong(ma *fsm.Machine, states [][]bool) *Trace {
	inputs := make([][]bool, len(states)-1)
	for i := range inputs {
		in, ok := ma.PickTransitionInto(states[i], stateCube(ma, states[i+1]))
		if !ok {
			panic("verify: no input realizes a recorded transition")
		}
		inputs[i] = in
	}
	return &Trace{States: states, Inputs: inputs}
}

// traceFromLayers reconstructs a counterexample from backward layers
// layers[0..k] (layers[i] = G_i as an implicit conjunction) where the
// initial states escape layers[k]. The violating path starts at an
// initial state outside G_k and, at each step, moves to a successor
// outside the next-lower layer, reaching ¬Good (= ¬G_0) in at most k
// steps.
func traceFromLayers(ma *fsm.Machine, layers []core.List, init bdd.Ref) *Trace {
	m := ma.M
	k := len(layers) - 1

	gk := layers[k]
	vi := gk.ViolatingConjunct(init)
	if vi < 0 {
		panic("verify: traceFromLayers called without a violation")
	}
	cur := m.SatAssignment(m.Diff(init, gk.Conjuncts[vi]))

	trace := &Trace{States: [][]bool{cur}}
	for i := k; i > 0; i-- {
		// cur is outside G_i = Good ∧ BackImage(G_{i-1}). If it is
		// already outside Good we are done early; otherwise some
		// successor escapes G_{i-1}.
		if escapes(m, layers[0], cur) {
			return trace
		}
		next, ok := pickEscape(ma, cur, layers[i-1])
		if !ok {
			panic("verify: backward layer invariant broken (no escaping successor)")
		}
		trace.Inputs = append(trace.Inputs, next.in)
		trace.States = append(trace.States, next.state)
		cur = next.state
	}
	if !escapes(m, layers[0], cur) {
		panic("verify: backward trace did not reach a violating state")
	}
	return trace
}

// escapes reports whether the state assignment violates the list.
func escapes(m *bdd.Manager, l core.List, state []bool) bool {
	_ = m
	return !l.Eval(state)
}

type chosenStep struct {
	in    []bool
	state []bool
}

// pickEscape finds an input taking the concrete state to a successor
// outside the given layer (violating at least one conjunct).
func pickEscape(ma *fsm.Machine, state []bool, layer core.List) (chosenStep, bool) {
	for _, conj := range layer.Conjuncts {
		in, ok := ma.PickTransitionInto(state, conj.Not())
		if !ok {
			continue
		}
		next, err := ma.Step(in)
		if err != nil {
			continue
		}
		return chosenStep{in: in, state: next}, true
	}
	return chosenStep{}, false
}
