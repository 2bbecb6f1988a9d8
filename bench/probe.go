package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The reference host is two vCPUs of a shared Xeon machine. Other
// tenants slow memory-bound work such as BDD operations by up to 2x for
// minutes at a time, while an arithmetic loop keeps one speed, so raw
// times of one build spread 10-20% between runs of 25 s and drift
// further between hours. Each timed sample is therefore also scaled to a
// fixed memory speed: the probe streams through a 64 MiB buffer just
// before and just after the sample, and the sample's time is multiplied
// by probeRefMS over the mean of those two readings. On that host, in
// two sets of ten runs, scaling cut the spread of throughput from
// 8-19% to 4-11% on the in-process workloads and zoo-batch; on
// icid-zipf it went from 5-10% to 7-8%.
//
// The probe touches nothing the program under test can change, and it
// runs only while that program is idle: between in-process instances
// after their garbage is collected, between batches, and during short
// pauses of the icid-zipf clients.

const (
	probeBytes = 64 << 20 // 32 times a core's L2 cache on the reference host
	// probeRefMS is the probe reading scaled times refer to: a scaled
	// time is what the sample would have taken on a host where one pass
	// over the probe buffer takes this long.
	probeRefMS = 10.0
)

// memProbe times sequential passes over a buffer mapped outside the Go
// heap, so that it neither changes the garbage collector's pacing of the
// program under test nor is scanned by it.
type memProbe struct {
	mem []byte
	buf []uint64
}

var probeSink uint64

func newMemProbe() (*memProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("mapping the memory probe: %w", err)
	}
	buf := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), len(mem)/8)
	for i := range buf {
		buf[i] = uint64(i) // fault every page in now, not during a reading
	}
	return &memProbe{mem: mem, buf: buf}, nil
}

// read returns how many milliseconds one pass over the buffer took.
func (p *memProbe) read() float64 {
	t0 := time.Now()
	var s uint64
	for _, v := range p.buf {
		s += v
	}
	d := time.Since(t0)
	probeSink += s
	return ms(d)
}

// close unmaps the buffer; a failed unmap leaves only the mapping behind,
// which the process's exit removes.
func (p *memProbe) close() { _ = syscall.Munmap(p.mem) }

// scaledMS is a sample of t ms, taken between probe readings before and
// after, at the reference memory speed.
func scaledMS(t, before, after float64) float64 {
	return t * probeRefMS / ((before + after) / 2)
}

// probeReading is one reading in a run whose samples overlap in time,
// and the time the reading ended.
type probeReading struct {
	at time.Time
	ms float64
}

// bracket is the index k of the readings around t: rs[k].at <= t <
// rs[k+1].at, clamped to the first and last pair. rs has at least two
// readings, in time order.
func bracket(rs []probeReading, t time.Time) int {
	k := sort.Search(len(rs), func(i int) bool { return rs[i].at.After(t) }) - 1
	return max(0, min(k, len(rs)-2))
}

// scaledSpanMS is the wall time from..to at the reference memory speed:
// each stretch between two readings is scaled by their mean.
func scaledSpanMS(rs []probeReading, from, to time.Time) float64 {
	var total float64
	for k := 0; k+1 < len(rs); k++ {
		lo, hi := rs[k].at, rs[k+1].at
		if from.After(lo) {
			lo = from
		}
		if to.Before(hi) {
			hi = to
		}
		if hi.After(lo) {
			total += scaledMS(ms(hi.Sub(lo)), rs[k].ms, rs[k+1].ms)
		}
	}
	return total
}
