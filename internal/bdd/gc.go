package bdd

// Garbage collection.
//
// The collector runs only when explicitly invoked (typically between
// traversal iterations), never in the middle of an operation, so
// intermediate results of a running recursion can never be reclaimed out
// from under it. The caller names the roots on each call; the Manager
// keeps no root set of its own.

// GC frees every node not reachable from roots and returns the number
// of nodes freed. Constants are always live. Any Ref the caller still
// means to use must be reachable from roots, so a caller that keeps
// several problems on one Manager must pass all of their roots. None
// does today: the commands and the benchmark build one Manager per
// run, and difftest's shared Manager holds one problem and passes its
// roots. The computed cache is cleared (an epoch bump; see
// computedCache.clear) and the unique table rebuilt; long-lived
// Substitution memos notice via the epoch.
func (m *Manager) GC(roots ...Ref) int {
	marked := make([]bool, len(m.nodes))
	marked[0] = true // terminal

	var stack []uint32
	for _, r := range roots {
		if i := r.index(); !marked[i] {
			marked[i] = true
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &m.nodes[idx]
		for _, ch := range [2]Ref{n.low, n.high} {
			ci := ch.index()
			if !marked[ci] {
				marked[ci] = true
				stack = append(stack, ci)
			}
		}
	}

	freed := 0
	for i := 1; i < len(m.nodes); i++ {
		n := &m.nodes[i]
		if n.level == freeLevel || marked[i] {
			continue
		}
		n.level = freeLevel
		n.next = m.free
		m.free = int32(i)
		m.freeCount++
		freed++
	}

	if freed > 0 {
		m.stats.Nodes -= freed
		m.stats.FreedNodes += freed
		m.rebuildUnique()
		m.cache.clear()
		m.epoch++
	}
	m.stats.GCs++
	return freed
}

// rebuildUnique rehashes all live nodes after a sweep.
func (m *Manager) rebuildUnique() {
	for i := range m.buckets {
		m.buckets[i] = -1
	}
	for i := 1; i < len(m.nodes); i++ {
		n := &m.nodes[i]
		if n.level == freeLevel {
			continue
		}
		h := hash3(n.level, n.low, n.high) & m.bucketMask
		n.next = m.buckets[h]
		m.buckets[h] = int32(i)
	}
}

// CheckInvariants validates the structural invariants of the node pool:
// canonical complement edges, ordered levels, no duplicate triples, and
// free-list consistency. Intended for tests; cost is linear in the pool.
func (m *Manager) CheckInvariants() error {
	seen := make(map[[3]uint32]int32, len(m.nodes))
	for i := 1; i < len(m.nodes); i++ {
		n := &m.nodes[i]
		if n.level == freeLevel {
			continue
		}
		if n.level == terminalLevel {
			return errInvariant("non-root terminal node", i)
		}
		if int(n.level) >= len(m.varNames) {
			return errInvariant("level beyond declared variables", i)
		}
		if n.high.complement() {
			return errInvariant("complemented then-edge", i)
		}
		if n.low == n.high {
			return errInvariant("redundant node (low == high)", i)
		}
		for _, ch := range [2]Ref{n.low, n.high} {
			cn := &m.nodes[ch.index()]
			if cn.level == freeLevel {
				return errInvariant("edge to freed node", i)
			}
			if cn.level != terminalLevel && cn.level <= n.level {
				return errInvariant("child level not strictly below parent", i)
			}
		}
		key := [3]uint32{n.level, uint32(n.low), uint32(n.high)}
		if _, dup := seen[key]; dup {
			return errInvariant("duplicate triple in unique table", i)
		}
		seen[key] = int32(i)
	}
	return nil
}

type invariantError struct {
	msg  string
	node int
}

func (e *invariantError) Error() string {
	return "bdd: invariant violated: " + e.msg
}

func errInvariant(msg string, node int) error {
	return &invariantError{msg: msg, node: node}
}
