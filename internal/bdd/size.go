package bdd

import (
	"math/big"
	"sort"
)

// Size returns the number of nodes (including the terminal) in the BDD
// rooted at f. This is the BDDSize of the paper's Figure 1.
func (m *Manager) Size(f Ref) int { return m.SharedSize(f) }

// SharedSize returns the number of distinct nodes (including the
// terminal) reachable from any of the roots, counting shared nodes once.
// This is the node-sharing-aware "BDDSize(X_i, X_j)" in the denominator
// of the greedy evaluation ratio.
func (m *Manager) SharedSize(roots ...Ref) int {
	seen := make(map[uint32]struct{})
	var stack []uint32
	for _, r := range roots {
		idx := r.index()
		if _, ok := seen[idx]; !ok {
			seen[idx] = struct{}{}
			stack = append(stack, idx)
		}
	}
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &m.nodes[idx]
		if n.level == terminalLevel {
			continue
		}
		for _, ch := range [2]Ref{n.low, n.high} {
			ci := ch.index()
			if _, ok := seen[ci]; !ok {
				seen[ci] = struct{}{}
				stack = append(stack, ci)
			}
		}
	}
	return len(seen)
}

// Support returns the variables f depends on, in ascending level order.
// The walk marks visited nodes in the manager's supportMark bitset and
// clears exactly those bits before returning, so it costs O(|f|) with no
// map and no sort; the backward image chain calls it on every image.
func (m *Manager) Support(f Ref) []Var {
	if need := (len(m.nodes) + 63) / 64; len(m.supportMark) < need {
		m.supportMark = make([]uint64, need+need/2)
	}
	mark := m.supportMark
	in := make([]bool, len(m.varNames))
	count := 0
	seen := []uint32{f.index()} // worklist and, once walked, the marks to clear
	mark[f.index()/64] |= 1 << (f.index() % 64)
	for i := 0; i < len(seen); i++ {
		n := &m.nodes[seen[i]]
		if n.level == terminalLevel {
			continue
		}
		if !in[n.level] {
			in[n.level] = true
			count++
		}
		for _, ch := range [2]Ref{n.low, n.high} {
			if ci := ch.index(); mark[ci/64]&(1<<(ci%64)) == 0 {
				mark[ci/64] |= 1 << (ci % 64)
				seen = append(seen, ci)
			}
		}
	}
	for _, idx := range seen {
		mark[idx/64] &^= 1 << (idx % 64)
	}
	vs := make([]Var, 0, count)
	for l, ok := range in {
		if ok {
			vs = append(vs, Var(l))
		}
	}
	return vs
}

// SatCount returns the number of satisfying assignments of f over all
// variables declared in the Manager.
func (m *Manager) SatCount(f Ref) *big.Int {
	return m.SatCountVars(f, len(m.varNames))
}

// SatCountVars returns the number of satisfying assignments of f over an
// explicit universe of nvars variables (levels 0..nvars-1). It panics if
// f depends on a variable outside that universe.
func (m *Manager) SatCountVars(f Ref, nvars int) *big.Int {
	memo := make(map[Ref]*big.Int)
	var count func(r Ref) *big.Int // assignments of vars below level(r), exclusive
	count = func(r Ref) *big.Int {
		if r == One {
			return big.NewInt(1)
		}
		if r == Zero {
			return big.NewInt(0)
		}
		if c, ok := memo[r]; ok {
			return c
		}
		level := int(m.Level(r))
		if level >= nvars {
			panic("bdd: SatCountVars universe smaller than support")
		}
		lo, hi := m.Low(r), m.High(r)
		cl := scale(count(lo), gap(m, lo, level, nvars))
		ch := scale(count(hi), gap(m, hi, level, nvars))
		c := new(big.Int).Add(cl, ch)
		memo[r] = c
		return c
	}
	return scale(count(f), gapTop(m, f, nvars))
}

// gap returns the number of skipped levels between a parent at level and
// its child ch, in a universe of nvars variables.
func gap(m *Manager, ch Ref, level, nvars int) int {
	cl := int(m.Level(ch))
	if ch.IsConst() {
		cl = nvars
	}
	return cl - level - 1
}

func gapTop(m *Manager, f Ref, nvars int) int {
	fl := int(m.Level(f))
	if f.IsConst() {
		fl = nvars
	}
	return fl
}

func scale(c *big.Int, skipped int) *big.Int {
	if skipped <= 0 {
		return c
	}
	return new(big.Int).Lsh(c, uint(skipped))
}

// Eval evaluates f under a total assignment indexed by level.
func (m *Manager) Eval(f Ref, assignment []bool) bool {
	for !f.IsConst() {
		level := m.Level(f)
		if int(level) >= len(assignment) {
			panic("bdd: Eval assignment too short")
		}
		if assignment[level] {
			f = m.High(f)
		} else {
			f = m.Low(f)
		}
	}
	return f == One
}

// Lit is one literal of a satisfying cube.
type Lit struct {
	Var Var
	Val bool
}

// AnySat returns one satisfying cube of f (mentioning only the variables
// on the chosen path), or nil if f is unsatisfiable.
func (m *Manager) AnySat(f Ref) []Lit {
	if f == Zero {
		return nil
	}
	var cube []Lit
	for !f.IsConst() {
		v := m.TopVar(f)
		hi := m.High(f)
		// Every reduced non-Zero branch is satisfiable, so descend into
		// whichever branch is not the constant Zero.
		if hi != Zero {
			cube = append(cube, Lit{Var: v, Val: true})
			f = hi
		} else {
			cube = append(cube, Lit{Var: v, Val: false})
			f = m.Low(f)
		}
	}
	return cube
}

// SatAssignment returns a full assignment (indexed by level, defaulting
// unconstrained variables to false) satisfying f, or nil if f is Zero.
func (m *Manager) SatAssignment(f Ref) []bool {
	if f == Zero {
		return nil
	}
	a := make([]bool, len(m.varNames))
	for _, lit := range m.AnySat(f) {
		a[lit.Var] = lit.Val
	}
	return a
}

// CubeRef converts a literal cube to its BDD.
func (m *Manager) CubeRef(cube []Lit) Ref {
	sorted := append([]Lit(nil), cube...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Var > sorted[j].Var })
	acc := One
	for _, lit := range sorted {
		if lit.Val {
			acc = m.mk(uint32(lit.Var), Zero, acc)
		} else {
			acc = m.mk(uint32(lit.Var), acc, Zero)
		}
	}
	return acc
}
