// Package bdd implements a reduced, ordered binary decision diagram
// (ROBDD) library in the style of Brace, Rudell, and Bryant's "Efficient
// Implementation of a BDD Package" (DAC 1990) — the same family as David
// Long's CMU package used in the paper this repository reproduces.
//
// The central features the verification algorithms depend on:
//
//   - Complement edges: negation is a constant-time bit flip, and testing
//     whether two functions are complements of each other is a constant
//     time comparison. The exact termination test of the paper's Section
//     III.B assumes both properties.
//   - Hash-consed unique table: structurally identical functions share a
//     single node, so pointer (Ref) equality is function equality and the
//     "shared size" BDDSize(X_i, X_j) of Figure 1 is meaningful.
//   - A computed cache memoizing (op, f, g, h) quadruples.
//   - A configurable node limit: when the table would exceed it, the
//     current operation unwinds with a *LimitError. This implements the
//     resource-bounded behaviour behind the "Exceeded 60MB" rows of the
//     paper's tables (and its Section V wish for abortable operations).
//
// All operations on a Manager panic with *LimitError when the node limit
// is exceeded; use Guard to convert that panic into an error at an API
// boundary. Managers are not safe for concurrent use.
package bdd

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/resource"
)

// Ref is a reference to a BDD function: a node index with a complement
// bit in the least significant position. Two Refs from the same Manager
// denote the same Boolean function if and only if they are equal.
//
// The zero value of Ref is the constant One.
type Ref uint32

// Constant functions. The terminal node is stored at index 0; One is its
// uncomplemented reference and Zero its complemented reference.
const (
	One  Ref = 0
	Zero Ref = 1
)

// index returns the node index of r, discarding the complement bit.
func (r Ref) index() uint32 { return uint32(r) >> 1 }

// complement reports whether r carries a complement mark.
func (r Ref) complement() bool { return r&1 != 0 }

// Not returns the negation of the function. It needs no Manager and runs
// in constant time: the defining property of complement edges.
func (r Ref) Not() Ref { return r ^ 1 }

// IsConst reports whether r is One or Zero.
func (r Ref) IsConst() bool { return r.index() == 0 }

// Var identifies a BDD variable. With static ordering (the only mode this
// package offers; the paper's experiments all use a fixed, hand-chosen
// interleaved order) a variable's id equals its level in the order.
type Var int

const (
	// terminalLevel is the level of the constant node: below every
	// variable, so cofactoring logic treats constants uniformly.
	terminalLevel = math.MaxUint32

	// freeLevel marks nodes currently on the free list.
	freeLevel = math.MaxUint32 - 1
)

// node is one BDD vertex. The canonical form of complement edges is
// enforced by mk: the high (then) edge is never complemented; complement
// marks live on low edges and on external references only.
type node struct {
	level uint32 // variable level; terminalLevel for the constant
	low   Ref    // else-branch (may be complemented)
	high  Ref    // then-branch (never complemented)
	next  int32  // unique-table bucket chain, or free-list link; -1 ends
}

// nodeBytes is the in-memory size of a node, for MemEstimate.
const nodeBytes = 16

// Stats holds operation counters for a Manager.
//
// The computed cache is direct-mapped, so every hash collision evicts a
// live entry: the shortfall of CacheHits/CacheLookups below the workload's
// intrinsic re-reference rate is the collision rate. cacheHash mixes each
// operand with its own odd multiplier specifically to keep that rate down
// — an overlapping pre-mix of the operands produces systematic collisions
// (distinct operand triples hashing identically) that no table size fixes.
type Stats struct {
	Nodes        int    // live (allocated minus freed) nodes, incl. terminal
	PeakNodes    int    // high-water mark of live nodes
	Vars         int    // declared variables
	CacheLookups uint64 // computed-cache probes
	CacheHits    uint64 // computed-cache hits (see collision note above)
	UniqueHits   uint64 // unique-table hits (node reuse)
	GCs          int    // completed garbage collections
	FreedNodes   int    // total nodes reclaimed by GC
}

// Manager owns a shared BDD node pool. All Refs are relative to the
// Manager that produced them; mixing Refs across Managers is a programming
// error that this package does not attempt to detect.
type Manager struct {
	mem        *tableMem // mappings behind the three tables below
	nodes      []node
	free       int32 // head of free list (-1 if empty)
	freeCount  int
	buckets    []int32
	bucketMask uint32

	varNames []string

	cache computedCache

	nodeLimit int // 0 means unlimited

	deadline      time.Time       // zero means no deadline
	ctx           context.Context // nil means no cancellation source
	deadlineCheck int             // allocations until the next clock/ctx read

	stats Stats

	// epoch is bumped by GC; long-lived memo tables (Substitution)
	// check it to invalidate themselves after node indices are reused.
	epoch uint64

	// supportMark is Support's visited bitset, one bit per node slot;
	// every bit is clear between calls.
	supportMark []uint64

	// Transfer memo scratch: a slice-indexed memo with a generation
	// stamp instead of a per-call map, owned by the destination manager
	// of a Transfer.
	xferVal []Ref
	xferGen []uint32
	xferCur uint32
}

// New creates an empty Manager sized for a small job: room for 1024
// nodes and a computed cache of 2^16 entries (1.5 MB). Both grow with
// the unique table as the job needs (see growBuckets), so every caller
// starts here.
func New() *Manager { return NewWithSize(1024, 16) }

// NewWithSize creates a Manager with an initial node capacity and a
// computed cache of 2^cacheBits entries. Only the benchmark's
// in-process workloads (bench/inproc.go) still pick their own start;
// everything else calls New.
func NewWithSize(nodeCap int, cacheBits uint) *Manager {
	if nodeCap < 16 {
		nodeCap = 16
	}
	m := &Manager{mem: new(tableMem), free: -1}
	m.nodes = newTable[node](m.mem, &m.mem.nodes, nodeCap)[:1]
	m.nodes[0] = node{level: terminalLevel, low: One, high: One, next: -1}
	m.initBuckets(1 << 10)
	m.cache.init(m.mem, cacheBits)
	m.stats.Nodes = 1
	m.stats.PeakNodes = 1
	return m
}

// NumVars returns the number of declared variables.
func (m *Manager) NumVars() int { return len(m.varNames) }

// NumNodes returns the number of live nodes, including the terminal.
func (m *Manager) NumNodes() int { return m.stats.Nodes }

// PeakNodes returns the high-water mark of live nodes.
func (m *Manager) PeakNodes() int { return m.stats.PeakNodes }

// Stats returns a snapshot of the Manager's counters.
func (m *Manager) Stats() Stats {
	s := m.stats
	s.Vars = len(m.varNames)
	return s
}

// MemEstimate returns an estimate, in bytes, of the memory footprint at
// the live-node high-water mark: node records plus the unique table and
// computed cache. This is the figure reported as "Mem" in the experiment
// tables (the paper reports verifier process size, which is dominated by
// the same structures).
func (m *Manager) MemEstimate() int {
	return m.stats.PeakNodes*nodeBytes + len(m.buckets)*4 + m.cache.memBytes()
}

// NewVar declares a fresh variable ordered after all existing variables
// and returns its handle. The name is used only for debugging output.
func (m *Manager) NewVar(name string) Var {
	if name == "" {
		name = fmt.Sprintf("v%d", len(m.varNames))
	}
	m.varNames = append(m.varNames, name)
	return Var(len(m.varNames) - 1)
}

// NewVars declares n fresh variables named prefix0..prefix(n-1).
func (m *Manager) NewVars(prefix string, n int) []Var {
	vs := make([]Var, n)
	for i := range vs {
		vs[i] = m.NewVar(fmt.Sprintf("%s%d", prefix, i))
	}
	return vs
}

// VarName returns the debug name of v.
func (m *Manager) VarName(v Var) string {
	if int(v) < 0 || int(v) >= len(m.varNames) {
		return fmt.Sprintf("v?%d", int(v))
	}
	return m.varNames[v]
}

// VarRef returns the function of the single variable v.
func (m *Manager) VarRef(v Var) Ref {
	if int(v) < 0 || int(v) >= len(m.varNames) {
		panic(fmt.Sprintf("bdd: VarRef of undeclared variable %d", int(v)))
	}
	return m.mk(uint32(v), Zero, One)
}

// NVarRef returns the negation of variable v.
func (m *Manager) NVarRef(v Var) Ref { return m.VarRef(v).Not() }

// Level returns the ordering level of the top variable of r, or
// math.MaxUint32 for constants.
func (m *Manager) Level(r Ref) uint32 {
	l := m.nodes[r.index()].level
	runtime.KeepAlive(m) // m's tables may be mappings, unmapped once m is unreachable
	return l
}

// TopVar returns the top variable of r. It panics on constants.
func (m *Manager) TopVar(r Ref) Var {
	l := m.Level(r)
	if l == terminalLevel {
		panic("bdd: TopVar of constant")
	}
	return Var(l)
}

// Low returns the else-cofactor of r with respect to its own top
// variable, accounting for r's complement mark. It panics on constants.
func (m *Manager) Low(r Ref) Ref {
	n := &m.nodes[r.index()]
	if n.level == terminalLevel {
		panic("bdd: Low of constant")
	}
	lo := n.low ^ (r & 1)
	runtime.KeepAlive(m)
	return lo
}

// High returns the then-cofactor of r with respect to its own top
// variable, accounting for r's complement mark. It panics on constants.
func (m *Manager) High(r Ref) Ref {
	n := &m.nodes[r.index()]
	if n.level == terminalLevel {
		panic("bdd: High of constant")
	}
	hi := n.high ^ (r & 1)
	runtime.KeepAlive(m)
	return hi
}

// cofactor returns the two cofactors of r with respect to the variable at
// level. If r's top variable is below level, both cofactors are r itself.
func (m *Manager) cofactor(r Ref, level uint32) (lo, hi Ref) {
	n := &m.nodes[r.index()]
	if n.level != level {
		return r, r
	}
	c := r & 1
	lo, hi = n.low^c, n.high^c
	runtime.KeepAlive(m)
	return lo, hi
}

// initBuckets replaces the unique-table bucket array with an empty one
// of the given power-of-two size.
func (m *Manager) initBuckets(size int) {
	m.buckets = newTable[int32](m.mem, &m.mem.buckets, size)
	for i := range m.buckets {
		m.buckets[i] = -1
	}
	m.bucketMask = uint32(size - 1)
}

// hash3 mixes a node triple into a bucket index.
func hash3(level uint32, low, high Ref) uint32 {
	h := uint64(level)*0x9e3779b97f4a7c15 ^ uint64(low)*0xff51afd7ed558ccd ^ uint64(high)*0xc4ceb9fe1a85ec53
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return uint32(h)
}

// mk returns the canonical node (level, low, high), applying the two
// reduction rules (merge equal children, share via the unique table) and
// the complement-edge canonical form (then-edge never complemented).
func (m *Manager) mk(level uint32, low, high Ref) Ref {
	if low == high {
		return low
	}
	var out Ref
	if high.complement() {
		// Push the complement to the incoming edge so the stored
		// then-edge is regular.
		out = 1
		low ^= 1
		high ^= 1
	}

	h := hash3(level, low, high) & m.bucketMask
	for i := m.buckets[h]; i >= 0; i = m.nodes[i].next {
		n := &m.nodes[i]
		if n.level == level && n.low == low && n.high == high {
			m.stats.UniqueHits++
			return Ref(uint32(i)<<1) ^ out
		}
	}

	idx := m.alloc()
	m.nodes[idx] = node{level: level, low: low, high: high, next: m.buckets[h]}
	m.buckets[h] = idx

	if m.stats.Nodes > len(m.buckets) {
		m.growBuckets()
	}
	return Ref(uint32(idx)<<1) ^ out
}

// deadlineStride bounds how many allocations may pass between clock
// reads when a deadline is set: cheap enough to be negligible, frequent
// enough that runaway operations abort within milliseconds of overrun.
const deadlineStride = 1 << 14

// DeadlineError is the panic value raised when an operation overruns the
// Manager's deadline. It is resource.DeadlineError; errors.Is(err,
// resource.ErrDeadline) matches it.
type DeadlineError = resource.DeadlineError

// ApplyBudget installs a run's resource.Budget on the Manager: the node
// limit (only when the budget sets one — 0 keeps the current limit), the
// resolved wall deadline, and the cancellation context. It returns a
// restore function that reinstates the previous limit, deadline, and
// context; the run harness defers it so a budget never outlives its run.
//
// ApplyBudget is the only way to bound a Manager: limits, deadlines, and
// cancellation reach the BDD layer through it alone. The deadline bounds
// a single runaway operation, not just the gaps between iterations — the
// situation behind the paper's "Exceeded 40 minutes" rows.
func (m *Manager) ApplyBudget(b resource.Budget) (restore func()) {
	prevLimit, prevDeadline, prevCtx := m.nodeLimit, m.deadline, m.ctx
	if b.NodeLimit > 0 {
		m.nodeLimit = b.NodeLimit
	}
	m.deadline = b.Deadline
	m.ctx = b.Ctx
	m.deadlineCheck = 0
	return func() {
		m.nodeLimit, m.deadline, m.ctx = prevLimit, prevDeadline, prevCtx
		m.deadlineCheck = 0
	}
}

// CheckBudget panics with *resource.CancelError if the installed context
// is canceled, or *resource.DeadlineError past the installed deadline.
// The allocator calls it on a stride; long loops that may run without
// allocating (cross-simplification sweeps, the greedy merge, the exact
// termination test) call it directly as a cheap checkpoint.
func (m *Manager) CheckBudget() {
	if m.ctx != nil {
		if err := m.ctx.Err(); err != nil {
			panic(&resource.CancelError{Cause: err})
		}
	}
	if !m.deadline.IsZero() && time.Now().After(m.deadline) {
		panic(&resource.DeadlineError{Deadline: m.deadline})
	}
}

// alloc returns a fresh node index, preferring the free list. It panics
// with *LimitError when the node limit would be exceeded, and on a
// stride with *DeadlineError past the deadline or *resource.CancelError
// when the installed context is canceled.
func (m *Manager) alloc() int32 {
	if m.nodeLimit > 0 && m.stats.Nodes >= m.nodeLimit {
		panic(&LimitError{Limit: m.nodeLimit, Live: m.stats.Nodes})
	}
	if !m.deadline.IsZero() || m.ctx != nil {
		m.deadlineCheck--
		if m.deadlineCheck <= 0 {
			m.deadlineCheck = deadlineStride
			m.CheckBudget()
		}
	}
	m.stats.Nodes++
	if m.stats.Nodes > m.stats.PeakNodes {
		m.stats.PeakNodes = m.stats.Nodes
	}
	if m.free >= 0 {
		idx := m.free
		m.free = m.nodes[idx].next
		m.freeCount--
		return idx
	}
	if len(m.nodes) == cap(m.nodes) {
		m.growNodes()
	}
	m.nodes = append(m.nodes, node{})
	return int32(len(m.nodes) - 1)
}

// maxCacheBits caps adaptive computed-cache growth (2^23 entries of 24
// bytes ≈ 201MB): beyond this, hit rate gains no longer pay for the
// memory.
const maxCacheBits = 23

// growBuckets doubles the unique table and rehashes all live nodes. It
// also grows the computed cache to keep pace with the node count — a
// cache much smaller than the working set thrashes, and a thrashing
// cache turns memoized recursions exponential.
func (m *Manager) growBuckets() {
	m.initBuckets(len(m.buckets) * 2)
	for i := 1; i < len(m.nodes); i++ {
		n := &m.nodes[i]
		if n.level == freeLevel {
			continue
		}
		h := hash3(n.level, n.low, n.high) & m.bucketMask
		n.next = m.buckets[h]
		m.buckets[h] = int32(i)
	}
	if len(m.cache.entries) < len(m.buckets) && len(m.cache.entries) < 1<<maxCacheBits {
		bits := uint(1)
		for 1<<bits < len(m.buckets) && bits < maxCacheBits {
			bits++
		}
		m.cache.init(m.mem, bits) // clearing the memo is safe, only slow
	}
}

// LimitError is the panic value raised when an operation would push the
// Manager past its node limit. It reproduces the resource-exhaustion
// behaviour behind the "Exceeded 60MB" rows in the paper's tables. It is
// resource.LimitError; errors.Is(err, resource.ErrNodeLimit) matches it.
type LimitError = resource.LimitError

// Guard runs f, converting a resource-overrun panic (*LimitError,
// *DeadlineError, *resource.CancelError, *resource.IterError) into an
// error return. Any other panic is re-raised. It is the intended API
// boundary for resource-bounded verification runs.
func Guard(f func()) (err error) {
	return resource.Guard(f)
}
