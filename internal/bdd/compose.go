package bdd

// Simultaneous functional composition ("vector compose"). This is the
// workhorse behind BackImage for machines given as next-state functions:
// BackImage(τ, G) = ∀inputs. G[state ← f(state, inputs)], which by the
// paper's Theorem 1 distributes over the conjuncts of an implicitly
// conjoined list.

// Substitution maps variables to replacement functions and carries a memo
// table so that composing many functions (e.g. every conjunct of a list)
// against the same substitution shares work. The memo is invalidated
// automatically when the Manager garbage-collects.
type Substitution struct {
	m     *Manager
	subst map[uint32]Ref // level -> replacement
	memo  map[Ref]Ref
	epoch uint64
}

// NewSubstitution creates an empty substitution on m.
func (m *Manager) NewSubstitution() *Substitution {
	return &Substitution{
		m:     m,
		subst: make(map[uint32]Ref),
		memo:  make(map[Ref]Ref),
		epoch: m.epoch,
	}
}

// Set maps variable v to the function g. Setting a variable twice
// replaces the earlier mapping. All mappings apply simultaneously.
func (s *Substitution) Set(v Var, g Ref) {
	s.subst[uint32(v)] = g
	s.memo = make(map[Ref]Ref) // mappings changed: drop memo
}

// Pairs returns the number of mapped variables.
func (s *Substitution) Pairs() int { return len(s.subst) }

// Compose returns f with every mapped variable simultaneously replaced by
// its image function.
func (s *Substitution) Compose(f Ref) Ref {
	if s.epoch != s.m.epoch {
		s.memo = make(map[Ref]Ref)
		s.epoch = s.m.epoch
	}
	if len(s.subst) == 0 {
		return f
	}
	return s.compose(f)
}

func (s *Substitution) compose(f Ref) Ref {
	if f.IsConst() {
		return f
	}
	// Memoize on the regular (uncomplemented) reference; complement
	// commutes with composition.
	reg := f &^ 1
	if r, ok := s.memo[reg]; ok {
		return r ^ (f & 1)
	}
	m := s.m
	level := m.Level(reg)
	lo := s.compose(m.Low(reg))
	hi := s.compose(m.High(reg))

	var branch Ref
	if g, ok := s.subst[level]; ok {
		branch = g
	} else {
		branch = m.mk(level, Zero, One)
	}
	r := m.ite(branch, hi, lo)
	s.memo[reg] = r
	return r ^ (f & 1)
}

// Compose substitutes a single variable: f[v <- g].
func (m *Manager) Compose(f Ref, v Var, g Ref) Ref {
	s := m.NewSubstitution()
	s.Set(v, g)
	return s.Compose(f)
}

// Rename returns f with each variable from[i] replaced by to[i]. The two
// slices must have equal length and the target variables must not appear
// in f's support overlapping in a way that would capture (simultaneous
// substitution makes the common disjoint-rename case safe regardless of
// order).
func (m *Manager) Rename(f Ref, from, to []Var) Ref {
	if len(from) != len(to) {
		panic("bdd: Rename with mismatched variable lists")
	}
	s := m.NewSubstitution()
	for i := range from {
		s.Set(from[i], m.VarRef(to[i]))
	}
	return s.Compose(f)
}
