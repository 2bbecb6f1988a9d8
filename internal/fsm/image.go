package fsm

import (
	"fmt"

	"repro/internal/bdd"
)

// The three image operators of the paper's Definition 1, over the
// functional transition structure. All take and return sets over
// current-state variables.

// Image returns the set of states reachable in one transition from a
// state in z: Image(τ, Z) = {v | ∃u. u ∈ Z ∧ τ(u, v)}.
func (ma *Machine) Image(z bdd.Ref) bdd.Ref {
	ma.mustBeSealed()
	m := ma.M
	acc := m.And(z, ma.constraint)
	acc = m.Exists(acc, ma.seedQuant)
	for _, p := range ma.transition {
		acc = m.AndExists(acc, p.rel, p.quant)
		if acc == bdd.Zero {
			return bdd.Zero
		}
	}
	// acc is now over next-state variables; bring it back to the
	// current-state space.
	return m.Rename(acc, ma.next, ma.cur)
}

// PreImage returns the set of states with some successor in z:
// PreImage(τ, Z) = {u | ∃v. v ∈ Z ∧ τ(u, v)}. The implementation is
// selected by the machine's PreImageMode.
func (ma *Machine) PreImage(z bdd.Ref) bdd.Ref {
	ma.mustBeSealed()
	if ma.PreImageMode == PreRelational {
		return ma.preImageRel(z, nil)
	}
	m := ma.M
	composed := ma.sub.Compose(z)
	return m.AndExists(ma.constraint, composed, ma.inputCube)
}

// BackImage returns the set of states all of whose successors lie in z:
// BackImage(τ, Z) = {u | ∀v. τ(u, v) ⇒ v ∈ Z} = ∀inp. C ⇒ Z[cur ← f].
//
// The identity BackImage(τ, Z) = ¬PreImage(τ, ¬Z) holds (Section II.A)
// and is what makes this as cheap as PreImage under complement edges.
func (ma *Machine) BackImage(z bdd.Ref) bdd.Ref {
	return ma.PreImage(z.Not()).Not()
}

// BackImageList applies BackImage to every element of a list of BDDs —
// Theorem 1: the BackImage of an implicit conjunction is the implicit
// conjunction of the per-element BackImages. Each element runs its own
// chain on PreRelational, which skips the parts the element's support
// cannot reach; on PreCompose the substitution memo is shared across
// the elements, so common subgraphs compose once.
func (ma *Machine) BackImageList(zs []bdd.Ref) []bdd.Ref {
	out := make([]bdd.Ref, len(zs))
	for i, z := range zs {
		out[i] = ma.BackImage(z)
	}
	return out
}

// Step simulates one concrete transition: given a total assignment to
// current-state and input variables (indexed by BDD level), it returns
// the successor assignment to current-state variables, patched into a
// copy of the input slice. It reports an error if the assignment violates
// the input constraint (no such transition exists).
func (ma *Machine) Step(assignment []bool) ([]bool, error) {
	ma.mustBeSealed()
	m := ma.M
	if !m.Eval(ma.constraint, assignment) {
		return nil, fmt.Errorf("fsm: assignment violates the input constraint")
	}
	out := append([]bool(nil), assignment...)
	for _, c := range ma.cur {
		out[c] = m.Eval(ma.nextFn[c], assignment)
	}
	return out, nil
}

// PickState extracts one concrete state (a full assignment over all
// manager variables, non-state bits defaulting to false) from a nonempty
// set, or nil if the set is empty.
func (ma *Machine) PickState(set bdd.Ref) []bool {
	return ma.M.SatAssignment(set)
}

// PickTransitionInto returns an input assignment that, applied in state
// `from` (a total assignment), leads to a successor inside target; found
// is false if no such input exists. The returned slice is a full
// assignment extending from with the chosen inputs.
func (ma *Machine) PickTransitionInto(from []bool, target bdd.Ref) ([]bool, bool) {
	ma.mustBeSealed()
	m := ma.M
	// Constrain the composed target and the input constraint by the
	// concrete current state, leaving a predicate over inputs.
	stateCube := make([]bdd.Lit, len(ma.cur))
	for i, c := range ma.cur {
		stateCube[i] = bdd.Lit{Var: c, Val: from[c]}
	}
	here := m.CubeRef(stateCube)
	ok := m.AndN(here, ma.constraint, ma.sub.Compose(target))
	if ok == bdd.Zero {
		return nil, false
	}
	choice := m.SatAssignment(ok)
	out := append([]bool(nil), from...)
	for _, v := range ma.inputs {
		out[v] = choice[v]
	}
	return out, true
}

// StateCube returns the cube of all current-state variables.
func (ma *Machine) StateCube() bdd.Ref {
	ma.mustBeSealed()
	return ma.curCube
}

// InputCube returns the cube of all input variables.
func (ma *Machine) InputCube() bdd.Ref {
	ma.mustBeSealed()
	return ma.inputCube
}

// TransitionRelation builds the monolithic relation τ(cur, next) =
// ∃inp. C ∧ ∧_i (next_i ≡ f_i). Exposed for tests and tiny examples; for
// real models this is the BDD the whole method avoids.
func (ma *Machine) TransitionRelation() bdd.Ref {
	ma.mustBeSealed()
	m := ma.M
	acc := ma.constraint
	for _, p := range ma.transition {
		acc = m.And(acc, p.rel)
	}
	return m.Exists(acc, ma.inputCube)
}

func (ma *Machine) mustBeSealed() {
	if !ma.sealed {
		panic("fsm: machine must be sealed before use (call Seal)")
	}
}
