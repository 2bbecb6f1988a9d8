package bdd

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Table memory.
//
// The node array, the unique-table buckets and the computed cache hold
// no pointers, and on the paper's large instances they reach hundreds
// of megabytes. In the Go heap each doubling of such a table pushes the
// heap past its goal before the collector runs, so the process peaks at
// about twice what the tables need. A table of at least mapThreshold
// bytes therefore lives in a private anonymous mapping, advised to use
// huge pages; a smaller one stays an ordinary Go slice, because a
// mapping per small manager costs system calls and page faults that
// its runs never earn back (EXPERIMENTS.md, "BDD tables in mapped
// memory").
//
// Each growth of a table gets a fresh mapping and unmaps the old one at
// once: the node array after copying its nodes across, the buckets and
// the cache before they are rebuilt. A fresh mapping reads as zeros,
// which is an empty cache: epoch 0 is never current. A mapping that
// fails leaves the table in the Go heap.
//
// Manager.Close unmaps a manager's tables; a finalizer on its tableMem
// is the backstop for a manager dropped without Close.

// mapThreshold is the smallest table, in bytes, that is mapped: one
// huge page. The package's own tests lower it to 0.
var mapThreshold = 2 << 20

// mappedBytes backs MappedBytes.
var mappedBytes atomic.Int64

// MappedBytes returns the bytes of BDD tables held in mappings outside
// the Go heap, summed over the process's managers.
func MappedBytes() int64 { return mappedBytes.Load() }

// tableMem owns the mappings behind one Manager's tables; a nil field
// is a table in the Go heap. Only the Manager points at it, so its
// finalizer runs once the Manager is unreachable.
type tableMem struct {
	nodes, buckets, cache []byte

	armed bool // the finalizer is set
}

// keep records the fresh mapping b in *reg, counts it in MappedBytes
// and, on the first mapping, sets the finalizer.
func (mem *tableMem) keep(reg *[]byte, b []byte) {
	*reg = b
	mappedBytes.Add(int64(len(b)))
	if !mem.armed {
		mem.armed = true
		runtime.SetFinalizer(mem, (*tableMem).release)
	}
}

// unmap gives the whole mapping behind *reg back, if there is one.
func (mem *tableMem) unmap(reg *[]byte) {
	if *reg == nil {
		return
	}
	mappedBytes.Add(-int64(len(*reg)))
	unmapAnon(*reg)
	*reg = nil
}

// release unmaps every table. It is the finalizer, and Close calls it.
func (mem *tableMem) release() {
	mem.unmap(&mem.nodes)
	mem.unmap(&mem.buckets)
	mem.unmap(&mem.cache)
}

// newTable returns a zeroed table of n elements in place of the one
// that *reg maps, if any, which it unmaps first. A table of at least
// mapThreshold bytes is mapped and *reg set to the mapping; anything
// else, or a table whose mapping fails, is made in the Go heap.
func newTable[T any](mem *tableMem, reg *[]byte, n int) []T {
	mem.unmap(reg)
	size := n * int(unsafe.Sizeof(*new(T)))
	if size >= mapThreshold {
		if b := mapAnon(size); b != nil {
			mem.keep(reg, b)
			return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)
		}
	}
	return make([]T, n)
}

// growNodes moves the full node array into a table of twice its
// capacity and gives back the mapping it leaves, if any. While the
// doubled array would stay under mapThreshold it does nothing, and
// append grows the array in the Go heap.
func (m *Manager) growNodes() {
	if 2*cap(m.nodes)*nodeBytes < mapThreshold {
		return
	}
	old := m.mem.nodes
	m.mem.nodes = nil
	nodes := newTable[node](m.mem, &m.mem.nodes, 2*cap(m.nodes))
	m.nodes = nodes[:copy(nodes, m.nodes)]
	m.mem.unmap(&old)
}

// Close gives the Manager's mapped tables back at once, instead of
// when the garbage collector finds the Manager unreachable. Every
// table is left nil, so a later operation on the Manager panics with an
// index error that recover catches rather than faulting. Calling Close
// again does nothing.
//
// A Manager's owner calls Close when it is done with every Ref the
// Manager produced.
func (m *Manager) Close() {
	m.mem.release()
	if m.mem.armed {
		m.mem.armed = false
		runtime.SetFinalizer(m.mem, nil)
	}
	m.nodes, m.buckets, m.cache.entries = nil, nil, nil
}
