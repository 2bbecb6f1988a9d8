package bdd

// Size-bounded operations — the capability the paper's Section V asks
// for when building the pairwise-conjunction table of Figure 1:
//
//	"before we build the BDD for any conjunction, we already have a
//	 limit on how large it can be and still be useful ... it would be
//	 useful to ... abort any of these operations if the size exceeds a
//	 specified bound."
//
// The bound is on node ALLOCATION during the operation: if computing the
// result would allocate more than budget fresh nodes, the operation is
// abandoned. Partially built nodes become garbage reclaimable by GC.

// AndBounded computes f ∧ g, giving up once more than budget new nodes
// would be allocated. ok is false on abandonment. A budget of zero or
// less means unbounded.
//
// A run-level node limit already in force takes precedence: if the
// manager's own limit is hit, the *LimitError propagates as usual so the
// surrounding verification run aborts rather than silently skipping a
// conjunction.
func (m *Manager) AndBounded(f, g Ref, budget int) (res Ref, ok bool) {
	return m.bounded(budget, func() Ref { return m.And(f, g) })
}

func (m *Manager) bounded(budget int, op func() Ref) (res Ref, ok bool) {
	if budget <= 0 {
		return op(), true
	}
	prev := m.nodeLimit
	temp := m.stats.Nodes + budget
	if prev > 0 && prev < temp {
		temp = prev
	}
	m.nodeLimit = temp
	defer func() {
		m.nodeLimit = prev
		if r := recover(); r != nil {
			le, isLimit := r.(*LimitError)
			if !isLimit {
				panic(r)
			}
			if prev > 0 && le.Live >= prev {
				// The run's own budget is exhausted, not just this
				// operation's: let the abort propagate.
				panic(r)
			}
			ok = false
		}
	}()
	return op(), true
}
