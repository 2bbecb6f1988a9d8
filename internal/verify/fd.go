package verify

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/fsm"
)

// runFD reconstructs the functional-dependency method of Hu & Dill
// ("Reducing BDD Size by Exploiting Functional Dependencies", DAC 1993 —
// ref [16]), the "FD" baseline of Table 1. The user declares that some
// state bits are, on every reachable state, functions of the others; the
// traversal then
//
//  1. checks the dependency holds initially,
//  2. substitutes the dependent bits away everywhere (next-state
//     functions, input constraint, property), shrinking the BDDs of the
//     reachable-state iterates,
//  3. forward-traverses the reduced machine, and
//  4. at each iterate re-checks that the dependency is inductive: from
//     any reached state, the dependent bits' next values equal the
//     defining functions applied to the next values of the others.
//
// If the dependency fails (initially or inductively) the run reports a
// violation: for the models in this repository the declared dependency
// is the property being verified, so this is precisely a property
// violation. With no declared dependencies the method is plain forward
// traversal.
func runFD(c *runCtx, p Problem, opt Options) Result {
	if len(p.Deps) == 0 {
		return runForward(c, p, opt)
	}
	ma := p.Machine
	m := ma.M

	depVars := make(map[bdd.Var]bool, len(p.Deps))
	for _, d := range p.Deps {
		depVars[d.Var] = true
	}
	// Defining functions must be over independent state bits only.
	for _, d := range p.Deps {
		for _, v := range m.Support(d.Def) {
			if depVars[v] {
				return Result{Outcome: Exhausted,
					Why: fmt.Sprintf("dependency for %s defined in terms of dependent variable %s",
						m.VarName(d.Var), m.VarName(v))}
			}
		}
	}

	// Step 1: the dependency must hold in every initial state.
	for _, d := range p.Deps {
		if !m.Implies(ma.Init(), m.Xnor(m.VarRef(d.Var), d.Def)) {
			return Result{Outcome: Violated, Iterations: 0, ViolationDepth: 0,
				Why: fmt.Sprintf("dependency for %s fails on an initial state", m.VarName(d.Var))}
		}
	}

	// Step 2: substitute dependent bits away.
	sigma := m.NewSubstitution()
	for _, d := range p.Deps {
		sigma.Set(d.Var, d.Def)
	}

	// The dependency relation v_d <-> Def_d. On any iterate it has been
	// checked inductive, so conjoining it lifts a reduced reachable set
	// back to the full machine's — which is how counterexample traces
	// are reconstructed below.
	depRel := bdd.One
	for _, d := range p.Deps {
		depRel = m.And(depRel, m.Xnor(m.VarRef(d.Var), d.Def))
	}
	c.Protect(depRel)

	var indep []bdd.Var
	for _, c := range ma.CurVars() {
		if !depVars[c] {
			indep = append(indep, c)
		}
	}

	red := buildReducedImage(ma, sigma, indep)
	// red.image reads every one of these after each collection.
	c.Protect(red.constraint)
	c.Protect(red.seedQuant)
	for _, part := range red.parts {
		c.Protect(part.rel)
		c.Protect(part.quant)
	}

	goodRed := c.Protect(sigma.Compose(p.good()))

	// The inductive-step check: some dependent bit's next value diverges
	// from its definition applied to the next independent values.
	nextIndep := m.NewSubstitution()
	for _, c := range indep {
		nextIndep.Set(c, sigma.Compose(ma.NextFn(c)))
	}
	badDep := bdd.Zero
	for _, d := range p.Deps {
		lhs := sigma.Compose(ma.NextFn(d.Var))
		rhs := nextIndep.Compose(d.Def)
		badDep = m.Or(badDep, m.Xor(lhs, rhs))
	}
	c.Protect(badDep)

	// Step 3/4: forward traversal of the reduced machine.
	r := c.Protect(m.Exists(ma.Init(), m.MkCube(depVarsList(p.Deps))))
	rings := []bdd.Ref{r}
	c.Observe(m.Size(r), nil)

	for i := 0; ; i++ {
		peak, _ := c.Peak()
		if m.AndN(r, red.constraint, badDep) != bdd.Zero {
			return Result{Outcome: Violated, Iterations: i, ViolationDepth: i + 1,
				PeakStateNodes: peak,
				Why:            "functional dependency is not inductive on a reachable state"}
		}
		if !m.Implies(r, goodRed) {
			res := Result{Outcome: Violated, Iterations: i, ViolationDepth: i, PeakStateNodes: peak}
			if opt.WantTrace {
				// Lift the reduced rings back to full-machine rings: the
				// dependency held inductively up to here, so each lifted
				// ring is exactly the corresponding full reachable
				// iterate, and the standard onion-ring walk applies.
				lifted := make([]bdd.Ref, len(rings))
				for j, rr := range rings {
					lifted[j] = m.And(rr, depRel)
				}
				res.Trace = traceFromRings(ma, lifted, p.good().Not())
			}
			return res
		}
		if res, stop := c.Tick(i); stop {
			return res
		}

		stop := c.Phase(PhaseImage)
		rn := c.Protect(m.Or(r, red.image(r)))
		stop()
		c.Observe(m.Size(rn), nil)
		conv := rn == r // canonical Ref equality: the fixpoint test is free
		c.EmitTermResolved(conv)
		if conv {
			peak, _ := c.Peak()
			return Result{Outcome: Verified, Iterations: i + 1, PeakStateNodes: peak}
		}
		r = rn
		rings = append(rings, r)
		c.MaybeGC(i)
	}
}

func depVarsList(deps []Dependency) []bdd.Var {
	out := make([]bdd.Var, len(deps))
	for i, d := range deps {
		out[i] = d.Var
	}
	return out
}

// reducedImage is the partitioned image computation of the reduced
// machine (dependent bits substituted away), with the same
// early-quantification scheduling as the full machine.
type reducedImage struct {
	ma         *fsm.Machine
	constraint bdd.Ref
	parts      []struct {
		rel   bdd.Ref
		quant bdd.Ref
	}
	seedQuant bdd.Ref
	nextVars  []bdd.Var
	curVars   []bdd.Var
}

func buildReducedImage(ma *fsm.Machine, sigma *bdd.Substitution, indep []bdd.Var) *reducedImage {
	m := ma.M
	red := &reducedImage{ma: ma, constraint: sigma.Compose(ma.InputConstraint()), curVars: indep}

	red.parts = make([]struct{ rel, quant bdd.Ref }, len(indep))
	support := make([][]bdd.Var, len(indep))
	red.nextVars = make([]bdd.Var, len(indep))
	for i, c := range indep {
		red.nextVars[i] = ma.NextVar(c)
		rel := m.Xnor(m.VarRef(red.nextVars[i]), sigma.Compose(ma.NextFn(c)))
		red.parts[i].rel = rel
		support[i] = m.Support(rel)
	}

	lastUse := make(map[bdd.Var]int)
	for _, v := range indep {
		lastUse[v] = -1
	}
	for _, v := range ma.InputVars() {
		lastUse[v] = -1
	}
	isQuantifiable := func(v bdd.Var) bool {
		_, ok := lastUse[v]
		return ok
	}
	for i, sup := range support {
		for _, v := range sup {
			if isQuantifiable(v) {
				lastUse[v] = i
			}
		}
	}
	for i := range red.parts {
		var cube []bdd.Var
		for v, last := range lastUse {
			if last == i {
				cube = append(cube, v)
			}
		}
		red.parts[i].quant = m.MkCube(cube)
	}
	var seed []bdd.Var
	for v, last := range lastUse {
		if last == -1 {
			seed = append(seed, v)
		}
	}
	red.seedQuant = m.MkCube(seed)
	return red
}

// image computes the reduced machine's forward image of z (a set over
// the independent current-state variables).
func (red *reducedImage) image(z bdd.Ref) bdd.Ref {
	m := red.ma.M
	acc := m.And(z, red.constraint)
	acc = m.Exists(acc, red.seedQuant)
	for _, p := range red.parts {
		acc = m.AndExists(acc, p.rel, p.quant)
		if acc == bdd.Zero {
			return bdd.Zero
		}
	}
	return m.Rename(acc, red.nextVars, red.curVars)
}
