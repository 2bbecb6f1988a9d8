package bdd

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/resource"
)

// TestCacheHashOperandIndependence pins the collision class the old
// pre-mix (f ^ g<<16 ^ h<<32) suffered from: operand bits overlapped
// before the multiply, so triples whose differences cancelled in the
// overlap — bit 16 of f against bit 0 of g, bit 32 of g against bit 0 of
// h — hashed identically no matter the finalizer. Per-operand odd
// multipliers break the cancellation.
func TestCacheHashOperandIndependence(t *testing.T) {
	collidingPairs := [][2][3]Ref{
		{{1 << 16, 0, 0}, {0, 1, 0}},       // f bit16 vs g bit0
		{{0, 1 << 16, 0}, {0, 0, 1}},       // g bit16 vs h bit0
		{{1 << 17, 2, 0}, {0, 0, 0}},       // f^(g<<16) self-cancels to zero
		{{1<<16 | 5, 9, 3}, {5, 9 | 1, 3}}, // mixed overlap
		{{3, 1 << 16, 7}, {3, 0, 7 | 1}},   // g/h overlap
	}
	for _, pair := range collidingPairs {
		a, b := pair[0], pair[1]
		if a == b {
			continue
		}
		if cacheHash(opITE, a[0], a[1], a[2]) == cacheHash(opITE, b[0], b[1], b[2]) {
			t.Fatalf("systematic collision survives: %v vs %v", a, b)
		}
	}
}

// TestCacheHashSpread: on random triples the low bits (the part that
// indexes the direct-mapped table) should look uniform — a crude
// bucket-occupancy check, not a statistical test.
func TestCacheHashSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const buckets = 256
	counts := make([]int, buckets)
	const n = 64 * buckets
	for i := 0; i < n; i++ {
		h := cacheHash(uint32(rng.Intn(6)), Ref(rng.Uint32()), Ref(rng.Uint32()), Ref(rng.Uint32()))
		counts[h%buckets]++
	}
	for b, c := range counts {
		// Expected 64 per bucket; flag anything wildly off.
		if c < 16 || c > 256 {
			t.Fatalf("bucket %d holds %d of %d hashes", b, c, n)
		}
	}
}

// TestCacheStillCorrect: the cache is an accelerator, never a source of
// truth — but a store must be retrievable under the same key.
func TestCacheRoundTrip(t *testing.T) {
	m := New()
	m.NewVars("x", 4)
	f, g, h := m.VarRef(0), m.VarRef(1), m.VarRef(2)
	m.cacheStore(opITE, f, g, h, m.VarRef(3))
	got, ok := m.cacheLookup(opITE, f, g, h)
	if !ok || got != m.VarRef(3) {
		t.Fatalf("cache round trip failed: %v %v", got, ok)
	}
	if _, ok := m.cacheLookup(opExists, f, g, h); ok {
		t.Fatal("op tag ignored in lookup")
	}
}

// TestCacheEpochClear: clear is an epoch bump that invalidates hits, and
// the uint32 wraparound falls back to a sweep rather than resurrecting
// entries stamped 2^32 clears ago.
func TestCacheEpochClear(t *testing.T) {
	var c computedCache
	c.init(8)
	c.entries[5] = cacheEntry{op: opITE, f: 2, g: 4, h: 6, res: 8, epoch: c.cur}
	c.clear()
	if e := &c.entries[5]; e.epoch == c.cur {
		t.Fatal("entry survived clear")
	}

	// Wraparound: an ancient entry stamped with what will become the
	// current epoch again must be swept away.
	c.cur = ^uint32(0) - 1
	c.entries[7] = cacheEntry{op: opITE, f: 1, g: 3, h: 5, res: 7, epoch: 1}
	c.clear() // cur -> MaxUint32
	c.clear() // wraps -> sweep -> cur 1
	if c.cur != 1 {
		t.Fatalf("post-wrap epoch %d, want 1", c.cur)
	}
	if e := &c.entries[7]; e.epoch == c.cur || e.op != opNone {
		t.Fatal("ancient entry resurrected by epoch wraparound")
	}
}

// TestSequentialCacheStillHits guards the epoch refactor against the
// trivial regression: stores made before any clear must still hit.
func TestSequentialCacheStillHits(t *testing.T) {
	m, vars := fuzzManager()
	f, _ := fuzzFormula(m, vars, testPrograms[0])
	g, _ := fuzzFormula(m, vars, testPrograms[1])
	m.And(f, g)
	before := m.Stats().CacheHits
	m.And(f, g)
	if m.Stats().CacheHits == before {
		t.Fatal("no cache hit on repeated And: epoch tagging broke stores")
	}
}

// TestCacheLookupSeesCancel: a rerun of an And after a cache clear finds
// every node in the unique table, so it never allocates and only the
// cache-lookup checkpoint can observe a canceled context that carries no
// deadline.
func TestCacheLookupSeesCancel(t *testing.T) {
	const n = 14
	m := New()
	xs := m.NewVars("x", n)
	ys := m.NewVars("y", n)
	f, g := One, One
	for i := 0; i < n; i++ {
		f = m.And(f, m.Xnor(m.VarRef(xs[i]), m.VarRef(ys[i])))
		g = m.And(g, m.Xnor(m.VarRef(xs[i]), m.VarRef(ys[(i+1)%n])))
	}
	m.And(f, g)

	m.cache.clear()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	defer m.ApplyBudget(resource.Budget{Ctx: ctx})()
	created := m.Stats().Nodes
	err := Guard(func() { m.And(f, g) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("rerun under a canceled context returned %v, want context.Canceled", err)
	}
	if m.Stats().Nodes != created {
		t.Fatalf("rerun created %d nodes; the test needs an allocation-free recursion", m.Stats().Nodes-created)
	}
}

// BenchmarkCacheClear: epoch-bump clear versus the full sweep, at the
// adaptive cache's maximum size.
func BenchmarkCacheClear(b *testing.B) {
	var c computedCache
	c.init(maxCacheBits)
	b.Run("epoch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.clear()
			if c.cur == 0 {
				b.Fatal("unreachable")
			}
		}
	})
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.sweep()
		}
	})
}
