// Package fsm provides the symbolic finite-state-machine layer the
// verification algorithms run on: state and input variable management,
// next-state functions, and the Image / PreImage / BackImage operators of
// the paper's Definition 1.
//
// Machines are modelled functionally: a machine is deterministic given
// its primary inputs, and all nondeterminism (environment choices,
// abstracted implementation freedom) enters through unconstrained or
// partially constrained input variables. The induced transition relation
// is
//
//	τ(u, v)  =  ∃inp. C(u, inp) ∧ v = f(u, inp)
//
// where C is the optional input constraint (environment assumption).
// With this shape the three image operators become:
//
//	Image(τ, Z)     = rename(∃ cur, inp. Z ∧ C ∧ ∧_i (next_i ≡ f_i))
//	PreImage(τ, Z)  = ∃ inp. C ∧ Z[cur ← f(cur, inp)]
//	BackImage(τ, Z) = ∀ inp. C ⇒ Z[cur ← f(cur, inp)]
//
// Image uses a partitioned transition relation with early quantification
// (ref [4] of the paper). PreImage and BackImage have two routes, picked
// by the machine's PreImageMode field. PreRelational, the default, runs
// the same partition backward: Z renamed to next-state variables, then
// one relational product per part, skipping every part whose quantified
// variables the accumulator does not mention — for such a part
// ∃next_i. acc ∧ (next_i ≡ f_i) = acc, so a per-conjunct BackImage of
// Theorem 1 only pays for the bits its conjunct depends on. PreCompose
// substitutes f into Z by simultaneous functional composition and never
// mentions next-state variables at all.
package fsm

import (
	"fmt"

	"repro/internal/bdd"
)

// Machine is a symbolic FSM under construction or in use. Build it by
// declaring bits (in the variable order you want — order is declaration
// order, so interleave datapath slices by declaring them interleaved),
// assigning next-state functions, the initial-state set, and optional
// input constraints; then call Seal before handing it to a verifier.
type Machine struct {
	M *bdd.Manager

	cur    []bdd.Var // current-state variables, in declaration order
	next   []bdd.Var // paired next-state variables (cur_i at level l, next_i at l+1)
	inputs []bdd.Var

	nextFn map[bdd.Var]bdd.Ref // per current-state bit

	init       bdd.Ref
	constraint bdd.Ref // input constraint C; One when absent

	sealed bool

	// Caches built by Seal.
	sub       *bdd.Substitution // cur -> nextFn
	inputCube bdd.Ref
	curCube   bdd.Ref
	fwd       Relation // partitioned relation, with the forward schedule

	preTransition []part // backward-direction quantification schedule
	preSeedQuant  bdd.Ref

	// PreImageMode selects the PreImage/BackImage implementation; see
	// the constants below. Set it before traversal begins.
	PreImageMode PreImageMode
}

// PreImageMode selects how PreImage (and thus BackImage) is computed.
type PreImageMode int

const (
	// PreRelational (the default) conjoins the per-bit transition
	// relations with early quantification of next-state and input
	// variables — the partitioned-relation technique of ref [4]. Far
	// better behaved on wide datapaths.
	PreRelational PreImageMode = iota
	// PreCompose substitutes the next-state functions into Z and
	// quantifies the inputs: ∃inp. C ∧ Z[cur ← f] — the functional
	// (Ever-style) route. Very fast when Z is small or the machine is
	// shallow; can explode in intermediates on wide datapaths (see the
	// ablation benchmarks).
	PreCompose
)

// part is one conjunct of a partitioned transition relation plus the
// cube of variables that may be quantified out right after it is
// conjoined (no later conjunct mentions them). quantVars lists quant's
// variables and restVars the rest of rel's support: what running the
// part can add to the accumulator's support (see preChain).
type part struct {
	rel, quant          bdd.Ref
	quantVars, restVars []bdd.Var
}

// New creates an empty machine on m.
func New(m *bdd.Manager) *Machine {
	return &Machine{
		M:          m,
		nextFn:     make(map[bdd.Var]bdd.Ref),
		init:       bdd.Zero,
		constraint: bdd.One,
	}
}

// NewStateBit declares a state bit, allocating adjacent current/next
// variables, and returns the current-state variable.
func (ma *Machine) NewStateBit(name string) bdd.Var {
	ma.mustBeUnsealed()
	c := ma.M.NewVar(name)
	n := ma.M.NewVar(name + "'")
	ma.cur = append(ma.cur, c)
	ma.next = append(ma.next, n)
	return c
}

// NewStateBits declares n state bits named prefix0..prefix(n-1).
func (ma *Machine) NewStateBits(prefix string, n int) []bdd.Var {
	out := make([]bdd.Var, n)
	for i := range out {
		out[i] = ma.NewStateBit(fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// NewInputBit declares a primary-input bit.
func (ma *Machine) NewInputBit(name string) bdd.Var {
	ma.mustBeUnsealed()
	v := ma.M.NewVar(name)
	ma.inputs = append(ma.inputs, v)
	return v
}

// SetNext assigns the next-state function of a declared state bit. The
// function may mention current-state and input variables only.
func (ma *Machine) SetNext(cur bdd.Var, f bdd.Ref) {
	ma.mustBeUnsealed()
	if !ma.isCur(cur) {
		panic(fmt.Sprintf("fsm: SetNext of non-state variable %s", ma.M.VarName(cur)))
	}
	ma.nextFn[cur] = f
}

// SetInit assigns the initial-state set (over current-state variables).
func (ma *Machine) SetInit(s bdd.Ref) {
	ma.mustBeUnsealed()
	ma.init = s
}

// AddInputConstraint conjoins an environment assumption over current
// state and input variables. Transitions violating it do not exist.
func (ma *Machine) AddInputConstraint(c bdd.Ref) {
	ma.mustBeUnsealed()
	ma.constraint = ma.M.And(ma.constraint, c)
}

// Init returns the initial-state set.
func (ma *Machine) Init() bdd.Ref { return ma.init }

// InputConstraint returns the accumulated environment assumption.
func (ma *Machine) InputConstraint() bdd.Ref { return ma.constraint }

// CurVars returns the current-state variables in declaration order.
func (ma *Machine) CurVars() []bdd.Var { return ma.cur }

// InputVars returns the input variables in declaration order.
func (ma *Machine) InputVars() []bdd.Var { return ma.inputs }

// NextVar returns the next-state variable paired with a current-state
// variable.
func (ma *Machine) NextVar(cur bdd.Var) bdd.Var {
	for i, c := range ma.cur {
		if c == cur {
			return ma.next[i]
		}
	}
	panic(fmt.Sprintf("fsm: NextVar of non-state variable %s", ma.M.VarName(cur)))
}

// NextFn returns the next-state function of a state bit.
func (ma *Machine) NextFn(cur bdd.Var) bdd.Ref {
	f, ok := ma.nextFn[cur]
	if !ok {
		panic(fmt.Sprintf("fsm: no next-state function for %s", ma.M.VarName(cur)))
	}
	return f
}

// StateBits returns the number of state bits.
func (ma *Machine) StateBits() int { return len(ma.cur) }

// InputBits returns the number of input bits.
func (ma *Machine) InputBits() int { return len(ma.inputs) }

func (ma *Machine) isCur(v bdd.Var) bool {
	for _, c := range ma.cur {
		if c == v {
			return true
		}
	}
	return false
}

func (ma *Machine) isInput(v bdd.Var) bool {
	for _, c := range ma.inputs {
		if c == v {
			return true
		}
	}
	return false
}

func (ma *Machine) mustBeUnsealed() {
	if ma.sealed {
		panic("fsm: machine is sealed")
	}
}

// Seal validates the machine and builds the operator caches. After Seal
// the machine is immutable. Seal reports, rather than panics on,
// validation failures so model builders get actionable errors.
func (ma *Machine) Seal() error {
	if ma.sealed {
		return nil
	}
	m := ma.M
	if len(ma.cur) == 0 {
		return fmt.Errorf("fsm: machine has no state bits")
	}
	for _, c := range ma.cur {
		f, ok := ma.nextFn[c]
		if !ok {
			return fmt.Errorf("fsm: state bit %s has no next-state function", m.VarName(c))
		}
		if err := ma.checkSupport("next-state function of "+m.VarName(c), f, true); err != nil {
			return err
		}
	}
	if err := ma.checkSupport("initial-state set", ma.init, false); err != nil {
		return err
	}
	if err := ma.checkSupport("input constraint", ma.constraint, true); err != nil {
		return err
	}

	// Composition substitution for PreImage / BackImage.
	ma.sub = m.NewSubstitution()
	for _, c := range ma.cur {
		ma.sub.Set(c, ma.nextFn[c])
	}

	ma.inputCube = m.MkCube(ma.inputs)
	ma.curCube = m.MkCube(ma.cur)
	// One conjunct next_i ≡ f_i per state bit. Forward, the current
	// and input variables are quantified; backward (PreRelational), the
	// next and input variables, with Z renamed to next variables as the
	// seed.
	rels := make([]bdd.Ref, len(ma.cur))
	for i, c := range ma.cur {
		rels[i] = m.Xnor(m.VarRef(ma.next[i]), ma.nextFn[c])
	}
	ma.fwd = newRelation(m, ma.constraint, rels, ma.cur, ma.next, ma.inputs)
	ma.preTransition, ma.preSeedQuant = schedule(m, rels, append(append([]bdd.Var(nil), ma.next...), ma.inputs...))

	ma.sealed = true
	return nil
}

// checkSupport verifies that f mentions only current-state variables and,
// if allowInputs, input variables.
func (ma *Machine) checkSupport(what string, f bdd.Ref, allowInputs bool) error {
	for _, v := range ma.M.Support(f) {
		if ma.isCur(v) {
			continue
		}
		if allowInputs && ma.isInput(v) {
			continue
		}
		return fmt.Errorf("fsm: %s depends on illegal variable %s", what, ma.M.VarName(v))
	}
	return nil
}

// MustSeal is Seal for model constructors that treat failure as a bug.
func (ma *Machine) MustSeal() {
	if err := ma.Seal(); err != nil {
		panic(err)
	}
}

// Roots returns every function the machine owns: the initial set, the
// input constraint, the next-state functions and, once sealed, the
// cubes and transition parts Seal built. A caller that collects the
// manager while it still needs the machine passes these to bdd.GC
// along with its own roots.
func (ma *Machine) Roots() []bdd.Ref {
	roots := []bdd.Ref{ma.init, ma.constraint}
	for _, f := range ma.nextFn {
		roots = append(roots, f)
	}
	if ma.sealed {
		roots = append(roots, ma.inputCube, ma.curCube, ma.preSeedQuant)
		roots = append(roots, ma.fwd.Roots()...)
		for _, p := range ma.preTransition {
			roots = append(roots, p.rel, p.quant)
		}
	}
	return roots
}

// schedule computes the early-quantification schedule of the
// conjunction of rels: each variable of quantifiable is quantified
// right after the last part whose support mentions it, and the ones no
// part mentions are quantified out of the seed, before the first part.
// Forward images, backward images and the FD method's reduced relation
// all run on it.
func schedule(m *bdd.Manager, rels []bdd.Ref, quantifiable []bdd.Var) (parts []part, seed bdd.Ref) {
	lastUse := make(map[bdd.Var]int, len(quantifiable))
	for _, v := range quantifiable {
		lastUse[v] = -1
	}
	supports := make([][]bdd.Var, len(rels))
	for i, rel := range rels {
		supports[i] = m.Support(rel)
		for _, v := range supports[i] {
			if _, ok := lastUse[v]; ok {
				lastUse[v] = i
			}
		}
	}
	parts = make([]part, len(rels))
	for i, rel := range rels {
		p := part{rel: rel}
		for _, v := range supports[i] {
			if last, ok := lastUse[v]; ok && last == i {
				p.quantVars = append(p.quantVars, v)
			} else {
				p.restVars = append(p.restVars, v)
			}
		}
		p.quant = m.MkCube(p.quantVars)
		parts[i] = p
	}
	var seedVars []bdd.Var
	for _, v := range quantifiable {
		if lastUse[v] == -1 {
			seedVars = append(seedVars, v)
		}
	}
	return parts, m.MkCube(seedVars)
}
