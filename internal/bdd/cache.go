package bdd

import "runtime"

// Operation tags for the computed cache. Each memoized operation gets a
// distinct tag so results of different operations on the same operands
// cannot collide.
const (
	opNone uint32 = iota
	opITE
	opExists
	opAndExists
	opRestrict
	opConstrain
	opCofactor
)

// cacheEntry memoizes one (op, f, g, h) -> result quadruple. An entry is
// valid only while its epoch matches the cache's current epoch: clearing
// the cache is a single epoch bump rather than an O(size) sweep (see
// clear). Zeroed entries carry epoch 0, which is never current.
type cacheEntry struct {
	op      uint32
	f, g, h Ref
	res     Ref
	epoch   uint32
}

// cacheEntryBytes is the in-memory size of a cacheEntry, for MemEstimate.
const cacheEntryBytes = 24

// computedCache is a direct-mapped cache: colliding entries overwrite each
// other. This is the classical BDD-package design — correctness never
// depends on a hit, only speed.
type computedCache struct {
	entries []cacheEntry
	mask    uint32

	// cur is the current epoch; entries stamped with an older epoch are
	// stale. It starts at 1 so zeroed entries (epoch 0) are born invalid.
	cur uint32
}

// init replaces the entries with 2^bits empty ones (at least 2^8),
// mapped or made through mem.
func (c *computedCache) init(mem *tableMem, bits uint) {
	if bits < 8 {
		bits = 8
	}
	c.entries = newTable[cacheEntry](mem, &mem.cache, 1<<bits)
	c.mask = uint32(len(c.entries) - 1)
	c.cur = 1
}

func (c *computedCache) memBytes() int {
	return len(c.entries) * cacheEntryBytes
}

// clear invalidates every entry (used after GC, when node indices may be
// reused for different functions). It bumps the epoch instead of sweeping
// the array: a GC-heavy run with a 2^23-entry cache would otherwise spend
// its inter-iteration pauses writing 200MB of tags. On the (once per 2^32
// clears) epoch wraparound the full sweep runs to retire entries whose
// ancient stamps would otherwise read as current again.
func (c *computedCache) clear() {
	c.cur++
	if c.cur == 0 {
		c.sweep()
	}
}

// sweep is the eager O(size) invalidation clear used to perform; it now
// backs only the epoch-wraparound path (and benchmarks).
func (c *computedCache) sweep() {
	for i := range c.entries {
		c.entries[i] = cacheEntry{op: opNone}
	}
	c.cur = 1
}

// cacheHash mixes an operation tag and its operands into a cache index.
// Each operand gets its own odd multiplier (as hash3 does for
// unique-table triples) before the final avalanche. The earlier
// f ^ g<<16 ^ h<<32 pre-mix overlapped operand bits — any two triples
// whose differences cancelled in the overlap (e.g. flipping bit 16 of f
// versus bit 0 of g) collided for every finalizer — which on ITE-heavy
// workloads shows up directly as direct-mapped evictions.
func cacheHash(op uint32, f, g, h Ref) uint32 {
	x := uint64(op)*0xd6e8feb86659fd93 ^
		uint64(f)*0x9e3779b97f4a7c15 ^
		uint64(g)*0xff51afd7ed558ccd ^
		uint64(h)*0xc4ceb9fe1a85ec53
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return uint32(x)
}

// lookup probes the cache. The Manager funnels all probes through here so
// hit-rate statistics stay centralized. This is also a budget
// checkpoint (deadline and cancellation alike): a recursion whose nodes
// all exist already — a thrashing direct-mapped cache, or a rerun after
// a cache clear — hits the unique table every time and never reaches
// alloc's check.
func (m *Manager) cacheLookup(op uint32, f, g, h Ref) (Ref, bool) {
	m.stats.CacheLookups++
	if m.stats.CacheLookups%deadlineStride == 0 && (m.ctx != nil || !m.deadline.IsZero()) {
		m.CheckBudget()
	}
	e := &m.cache.entries[cacheHash(op, f, g, h)&m.cache.mask]
	hit := e.epoch == m.cache.cur && e.op == op && e.f == f && e.g == g && e.h == h
	res := e.res
	runtime.KeepAlive(m) // m's tables may be mappings, unmapped once m is unreachable
	if !hit {
		return 0, false
	}
	m.stats.CacheHits++
	return res, true
}

// cacheStore records a computed result.
func (m *Manager) cacheStore(op uint32, f, g, h, res Ref) {
	e := &m.cache.entries[cacheHash(op, f, g, h)&m.cache.mask]
	*e = cacheEntry{op: op, f: f, g: g, h: h, res: res, epoch: m.cache.cur}
	runtime.KeepAlive(m)
}
