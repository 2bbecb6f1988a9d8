package models

import (
	"fmt"

	"repro/internal/ir"
)

// CoherenceConfig parameterizes a small directory-based MSI cache
// coherence protocol — the class of "industrial directory-based
// cache-coherence protocols" the paper's introduction names as the
// motivating workload for high-level BDD verification. One memory line,
// Caches caching agents, a directory tracking sharers and ownership;
// transactions are atomic (buffered-network effects are the business of
// the network model, not this one).
type CoherenceConfig struct {
	Caches int // number of caching agents (2..8)

	// Bug, if true, lets a cache upgrade from Shared to Modified
	// without invalidating the other sharers — the classic coherence
	// bug, violating single-writer-multiple-reader.
	Bug bool
}

// MSI cache states (2 bits per cache).
const (
	msiInvalid  = 0
	msiShared   = 1
	msiModified = 2
)

// Protocol actions chosen nondeterministically by the environment.
const (
	cohIdle    = 0
	cohRead    = 1 // requester obtains a Shared copy
	cohUpgrade = 2 // requester obtains the Modified copy
	cohEvict   = 3 // requester silently drops its copy
)

// BuildCoherence builds the MSI protocol model as manager-independent
// IR.
//
// The safety property is the conjunction of, per cache p:
//
//   - SWMR: if p is Modified, every other cache is Invalid, and
//   - directory consistency: the directory's sharer bit for p is set
//     exactly when p holds a copy, and its dirty bit is set exactly when
//     some cache is Modified.
//
// These per-cache conjuncts form the natural implicit conjunction; the
// directory-consistency half also doubles as a functional dependency
// (the directory state is a function of the cache states), exercising
// the FD engine on a protocol.
func BuildCoherence(cfg CoherenceConfig) *ir.Model {
	n := cfg.Caches
	if n < 2 || n > 8 {
		panic("models: coherence needs 2 <= Caches <= 8")
	}

	b := ir.NewBuilder(fmt.Sprintf("msi-n%d", n))
	b.ParamInt("caches", n)
	b.ParamBool("bug", cfg.Bug)

	act := b.Inputs("act", 2)
	sel := b.Inputs("csel", 3)

	// Cache states first, then the directory (whose bits are functions
	// of the cache states — good for both ordering and the FD engine).
	caches := make([][]*ir.Node, n)
	for p := 0; p < n; p++ {
		caches[p] = b.States(fmt.Sprintf("c%d.s", p), 2, false)
	}
	sharer := make([]*ir.Node, n)
	for p := 0; p < n; p++ {
		sharer[p] = b.State(fmt.Sprintf("dir.sh%d", p), false)
	}
	dirty := b.State("dir.dirty", false)

	action := ir.FromNodes(act)
	chosen := ir.FromNodes(sel)
	b.Constrain(ir.LtW(chosen, ir.ConstWord(uint64(n), 3)))

	isRead := ir.EqConstW(action, cohRead)
	isUpgrade := ir.EqConstW(action, cohUpgrade)
	isEvict := ir.EqConstW(action, cohEvict)

	st := func(p int) ir.Word { return ir.FromNodes(caches[p]) }
	inState := func(p int, s uint64) *ir.Node { return ir.EqConstW(st(p), s) }

	for p := 0; p < n; p++ {
		selP := ir.EqConstW(chosen, uint64(p))

		// Read: an Invalid requester becomes Shared (a Modified owner,
		// if any, is downgraded to Shared by the same atomic
		// transaction). Reads by non-Invalid caches are hits: no change.
		readHere := ir.And(isRead, selP, inState(p, msiInvalid))
		// A remote read downgrades a Modified copy.
		remoteRead := ir.And(isRead, ir.Not(selP), inState(p, msiModified))

		// Upgrade: the requester becomes Modified; everyone else is
		// invalidated (unless the seeded bug skips the invalidation of
		// Shared copies).
		upHere := ir.And(isUpgrade, selP, ir.Not(inState(p, msiModified)))
		remoteUp := ir.And(isUpgrade, ir.Not(selP))
		if cfg.Bug {
			// The bug: remote SHARED copies survive an upgrade. Remote
			// Modified owners are still invalidated (otherwise even the
			// buggy protocol's designers would have noticed).
			remoteUp = ir.And(remoteUp, inState(p, msiModified))
		}

		// Evict: the requester drops to Invalid (silently; the
		// directory is updated in the same transaction).
		evictHere := ir.And(isEvict, selP, ir.Not(inState(p, msiInvalid)))

		next := st(p)
		next = ir.MuxW(readHere, ir.ConstWord(msiShared, 2), next)
		next = ir.MuxW(remoteRead, ir.ConstWord(msiShared, 2), next)
		next = ir.MuxW(upHere, ir.ConstWord(msiModified, 2), next)
		next = ir.MuxW(ir.And(remoteUp, upgradeHappens(isUpgrade, chosen, st, n)), ir.ConstWord(msiInvalid, 2), next)
		next = ir.MuxW(evictHere, ir.ConstWord(msiInvalid, 2), next)
		setWord(b, caches[p], next)
	}

	// Directory: sharer bit p set iff cache p holds a copy after the
	// transaction; dirty iff some cache is Modified. Built directly from
	// the caches' next-state functions to model an atomic directory.
	for p := 0; p < n; p++ {
		nextSt := ir.WordOf(b.NextFn(caches[p][0]), b.NextFn(caches[p][1]))
		holds := ir.Not(ir.EqConstW(nextSt, msiInvalid))
		b.SetNext(sharer[p], holds)
	}
	anyDirty := ir.Bool(false)
	for p := 0; p < n; p++ {
		nextSt := ir.WordOf(b.NextFn(caches[p][0]), b.NextFn(caches[p][1]))
		anyDirty = ir.Or(anyDirty, ir.EqConstW(nextSt, msiModified))
	}
	b.SetNext(dirty, anyDirty)

	// Property conjuncts and the directory functional dependency.
	for p := 0; p < n; p++ {
		othersInvalid := ir.Bool(true)
		for q := 0; q < n; q++ {
			if q != p {
				othersInvalid = ir.And(othersInvalid, inState(q, msiInvalid))
			}
		}
		swmr := ir.Imp(inState(p, msiModified), othersInvalid)
		dirOK := ir.Xnor(sharer[p], ir.Not(inState(p, msiInvalid)))
		b.Good(ir.And(swmr, dirOK))
		b.Dep(sharer[p], ir.Not(inState(p, msiInvalid)))
	}
	anyMod := ir.Bool(false)
	for p := 0; p < n; p++ {
		anyMod = ir.Or(anyMod, inState(p, msiModified))
	}
	b.Good(ir.Xnor(dirty, anyMod))
	b.Dep(dirty, anyMod)

	return b.Build()
}

// upgradeHappens is the guard that the selected requester really
// performs an upgrade this cycle (it is not already Modified), so remote
// invalidations fire exactly when ownership changes hands.
func upgradeHappens(isUpgrade *ir.Node, chosen ir.Word, st func(int) ir.Word, n int) *ir.Node {
	fires := ir.Bool(false)
	for p := 0; p < n; p++ {
		selP := ir.EqConstW(chosen, uint64(p))
		notOwner := ir.Not(ir.EqConstW(st(p), msiModified))
		fires = ir.Or(fires, ir.And(selP, notOwner))
	}
	return ir.And(isUpgrade, fires)
}
