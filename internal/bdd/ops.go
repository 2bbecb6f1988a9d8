package bdd

// This file implements the Boolean connectives. Everything funnels into a
// single memoized if-then-else (ITE) recursion, the standard construction
// of Brace–Rudell–Bryant. The normalization rules below keep the computed
// cache effective by mapping equivalent calls onto one canonical triple.

// ITE returns the function "if f then g else h".
func (m *Manager) ITE(f, g, h Ref) Ref {
	return m.ite(f, g, h)
}

// And returns the conjunction of f and g.
func (m *Manager) And(f, g Ref) Ref { return m.ite(f, g, Zero) }

// Or returns the disjunction of f and g.
func (m *Manager) Or(f, g Ref) Ref { return m.ite(f, One, g) }

// Xor returns the exclusive-or of f and g.
func (m *Manager) Xor(f, g Ref) Ref { return m.ite(f, g.Not(), g) }

// Xnor returns the equivalence (biconditional) of f and g.
func (m *Manager) Xnor(f, g Ref) Ref { return m.ite(f, g, g.Not()) }

// Nand returns the negated conjunction of f and g.
func (m *Manager) Nand(f, g Ref) Ref { return m.And(f, g).Not() }

// Nor returns the negated disjunction of f and g.
func (m *Manager) Nor(f, g Ref) Ref { return m.Or(f, g).Not() }

// Imp returns the implication f => g.
func (m *Manager) Imp(f, g Ref) Ref { return m.ite(f, g, One) }

// Diff returns f AND NOT g (set difference when Refs denote sets).
func (m *Manager) Diff(f, g Ref) Ref { return m.ite(f, g.Not(), Zero) }

// Implies reports whether f => g is a tautology, without building any new
// nodes beyond those needed by the And.
func (m *Manager) Implies(f, g Ref) bool { return m.And(f, g.Not()) == Zero }

// AndN folds And over its arguments; AndN() is One.
func (m *Manager) AndN(fs ...Ref) Ref {
	acc := One
	for _, f := range fs {
		acc = m.And(acc, f)
		if acc == Zero {
			return Zero
		}
	}
	return acc
}

// OrN folds Or over its arguments; OrN() is Zero.
func (m *Manager) OrN(fs ...Ref) Ref {
	acc := Zero
	for _, f := range fs {
		acc = m.Or(acc, f)
		if acc == One {
			return One
		}
	}
	return acc
}

// ite is the memoized recursion behind every connective.
func (m *Manager) ite(f, g, h Ref) Ref {
	// Collapse operand coincidences first; they both terminate the
	// recursion early and improve normalization below.
	if f == g {
		g = One
	} else if f == g.Not() {
		g = Zero
	}
	if f == h {
		h = Zero
	} else if f == h.Not() {
		h = One
	}

	// Terminal cases.
	switch {
	case f == One:
		return g
	case f == Zero:
		return h
	case g == h:
		return g
	case g == One && h == Zero:
		return f
	case g == Zero && h == One:
		return f.Not()
	}

	// Normalization: for the commutative forms, put the operand with the
	// topmost variable (or, on ties, the smaller index) first so that
	// And(a,b) and And(b,a) share a cache line.
	switch {
	case g == One: // OR(f, h)
		if m.before(h, f) {
			f, h = h, f
		}
	case h == Zero: // AND(f, g)
		if m.before(g, f) {
			f, g = g, f
		}
	case g == Zero: // AND(NOT f, h) == NOT OR(f, NOT h)
		if m.before(h, f) {
			f, h = h.Not(), f.Not()
		}
	case h == One: // OR(NOT f, g) == NOT AND(f, NOT g)
		if m.before(g, f) {
			f, g = g.Not(), f.Not()
		}
	case g == h.Not(): // XOR-shaped: ITE(f,g,!g) == ITE(g,f,!f)
		if m.before(g, f) {
			f, g = g, f
			h = g.Not()
		}
	}

	// Canonical polarity: first argument uncomplemented...
	if f.complement() {
		f = f.Not()
		g, h = h, g
	}
	// ...and then-argument uncomplemented (complement the output).
	var outc Ref
	if g.complement() {
		outc = 1
		g = g.Not()
		h = h.Not()
	}

	if r, ok := m.cacheLookup(opITE, f, g, h); ok {
		return r ^ outc
	}

	top := m.Level(f)
	if l := m.Level(g); l < top {
		top = l
	}
	if l := m.Level(h); l < top {
		top = l
	}

	f0, f1 := m.cofactor(f, top)
	g0, g1 := m.cofactor(g, top)
	h0, h1 := m.cofactor(h, top)

	lo := m.ite(f0, g0, h0)
	hi := m.ite(f1, g1, h1)
	r := m.mk(top, lo, hi)

	m.cacheStore(opITE, f, g, h, r)
	return r ^ outc
}

// before reports whether a's top variable sits strictly above b's, with
// node index as a deterministic tie-breaker. Used only for cache-friendly
// operand ordering, never for semantics.
func (m *Manager) before(a, b Ref) bool {
	la, lb := m.Level(a), m.Level(b)
	if la != lb {
		return la < lb
	}
	return a.index() < b.index()
}
