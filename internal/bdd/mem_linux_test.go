package bdd

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestMain maps every table, however small, so this package's tests and
// its fuzz targets' seed corpora run on mapped tables. Every other
// package keeps the real threshold and so covers the heap path.
func TestMain(m *testing.M) {
	mapThreshold = 0
	os.Exit(m.Run())
}

// closeRun is one seeded run of random operations with a GC halfway,
// under the given mapping threshold. It returns the open Manager, every
// Ref it produced and its final Stats.
func closeRun(t *testing.T, threshold int) (*Manager, []Ref, Stats) {
	t.Helper()
	saved := mapThreshold
	mapThreshold = threshold
	defer func() { mapThreshold = saved }()

	rng := rand.New(rand.NewSource(7))
	m := NewWithSize(16, 8)
	pool := []Ref{}
	for _, v := range m.NewVars("x", 40) {
		pool = append(pool, m.VarRef(v))
	}
	var refs []Ref
	step := func() {
		f, g, h := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		var r Ref
		switch rng.Intn(4) {
		case 0:
			r = m.And(f, g)
		case 1:
			r = m.Or(f, g.Not())
		case 2:
			r = m.Xor(f, g)
		default:
			r = m.ITE(f, g, h)
		}
		refs = append(refs, r)
		pool = append(pool, r)
	}
	for m.NumNodes() < 40_000 {
		step()
	}
	pool = pool[len(pool)-64:]
	m.GC(pool...)
	for m.NumNodes() < 80_000 {
		step()
	}
	return m, refs, m.Stats()
}

// settledMappedBytes collects garbage until MappedBytes stops moving,
// so no earlier test's dropped Manager is still waiting for its
// finalizer, and returns the gauge.
func settledMappedBytes() int64 {
	last := int64(-1)
	for i := 0; i < 100; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		if cur := MappedBytes(); cur == last {
			break
		} else {
			last = cur
		}
	}
	return last
}

// TestManagerClose: a Manager whose tables all grow from the Go heap
// into mappings computes what an all-heap Manager computes, Close gives
// the mappings back once, a call after Close panics recoverably, and a
// Manager dropped without Close gives its mappings back to the
// finalizer.
func TestManagerClose(t *testing.T) {
	heap, wantRefs, wantStats := closeRun(t, math.MaxInt)
	if heap.mem.nodes != nil || heap.mem.buckets != nil || heap.mem.cache != nil {
		t.Fatal("a table of the heap run was mapped")
	}
	heap.Close()

	base := settledMappedBytes()
	m, refs, stats := closeRun(t, 1<<18)
	if m.mem.nodes == nil || m.mem.buckets == nil || m.mem.cache == nil {
		t.Fatalf("mapped run: nodes %t, buckets %t, cache %t mapped; want all three",
			m.mem.nodes != nil, m.mem.buckets != nil, m.mem.cache != nil)
	}
	if !slices.Equal(refs, wantRefs) {
		t.Fatal("mapped run produced other Refs than the heap run")
	}
	if stats != wantStats {
		t.Fatalf("mapped run stats %+v, heap run %+v", stats, wantStats)
	}
	if MappedBytes() <= base {
		t.Fatalf("MappedBytes %d with the mapped run open, %d before", MappedBytes(), base)
	}

	f, g := refs[len(refs)-1], refs[len(refs)-2]
	m.Close()
	if got := MappedBytes(); got != base {
		t.Fatalf("MappedBytes %d after Close, want %d", got, base)
	}
	m.Close()
	if got := MappedBytes(); got != base {
		t.Fatalf("MappedBytes %d after a second Close, want %d", got, base)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("And after Close did not panic")
			}
		}()
		m.And(f, g)
	}()

	// Drop a mapped Manager without Close: once the collector finds it
	// unreachable, the finalizer gives its mappings back.
	base = settledMappedBytes()
	dropped, _, _ := closeRun(t, 1<<18)
	grown := MappedBytes() > base
	runtime.KeepAlive(dropped)
	if !grown {
		t.Fatal("the dropped run mapped nothing")
	}
	for deadline := time.Now().Add(10 * time.Second); MappedBytes() != base; {
		if time.Now().After(deadline) {
			t.Fatalf("MappedBytes %d after the dropped Manager's GC, want %d", MappedBytes(), base)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
