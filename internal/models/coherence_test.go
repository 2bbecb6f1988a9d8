package models

import (
	"testing"

	"repro/internal/bdd"
	"repro/internal/verify"
)

func TestCoherenceVerifies(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		p := BuildCoherence(CoherenceConfig{Caches: n}).MustInstantiate(bdd.New())
		runAll(t, p, fourMethods, verify.Verified)
		// And the FD engine via the directory dependency.
		res := verify.Run(p, verify.FD, verify.Options{})
		if res.Outcome != verify.Verified {
			t.Fatalf("FD on n=%d: %v (%s)", n, res.Outcome, res.Why)
		}
	}
}

func TestCoherenceBugCaught(t *testing.T) {
	p := BuildCoherence(CoherenceConfig{Caches: 3, Bug: true}).MustInstantiate(bdd.New())
	for _, method := range fourMethods {
		res := verify.Run(p, method, verify.Options{WantTrace: true})
		if res.Outcome != verify.Violated {
			t.Fatalf("%s: outcome %v, want violated", method, res.Outcome)
		}
		if err := res.Trace.Validate(p.Machine, p.GoodList); err != nil {
			t.Fatalf("%s: trace invalid: %v", method, err)
		}
		// Shortest failure: a read brings a sharer in, then a second
		// cache upgrades without invalidating: 2 transactions.
		if res.ViolationDepth != 2 {
			t.Fatalf("%s: violation depth %d, want 2", method, res.ViolationDepth)
		}
	}
}

// TestCoherenceProtocolSemantics spot-checks concrete transactions by
// simulation: read sharing, ownership transfer, invalidation on upgrade.
func TestCoherenceProtocolSemantics(t *testing.T) {
	m := bdd.New()
	p := BuildCoherence(CoherenceConfig{Caches: 2}).MustInstantiate(m)
	ma := p.Machine

	state := m.SatAssignment(ma.Init())
	step := func(action, cache uint64) {
		t.Helper()
		in := append([]bool(nil), state...)
		// act bits are the first two declared variables; csel the next
		// three (declaration order in BuildCoherence).
		iv := ma.InputVars()
		in[iv[0]] = action&1 != 0
		in[iv[1]] = action&2 != 0
		in[iv[2]] = cache&1 != 0
		in[iv[3]] = cache&2 != 0
		in[iv[4]] = cache&4 != 0
		next, err := ma.Step(in)
		if err != nil {
			t.Fatalf("step rejected: %v", err)
		}
		state = next
	}
	cacheState := func(p int) uint64 {
		vs := ma.CurVars()
		// Cache p's two bits are the (2p)th and (2p+1)th state bits.
		v := uint64(0)
		if state[vs[2*p]] {
			v |= 1
		}
		if state[vs[2*p+1]] {
			v |= 2
		}
		return v
	}

	step(cohRead, 0) // cache 0 reads: Shared
	if cacheState(0) != msiShared || cacheState(1) != msiInvalid {
		t.Fatalf("after read: %d %d", cacheState(0), cacheState(1))
	}
	step(cohUpgrade, 1) // cache 1 writes: Modified, cache 0 invalidated
	if cacheState(0) != msiInvalid || cacheState(1) != msiModified {
		t.Fatalf("after upgrade: %d %d", cacheState(0), cacheState(1))
	}
	step(cohRead, 0) // cache 0 reads back: both Shared (owner downgraded)
	if cacheState(0) != msiShared || cacheState(1) != msiShared {
		t.Fatalf("after second read: %d %d", cacheState(0), cacheState(1))
	}
	step(cohEvict, 0) // cache 0 evicts
	if cacheState(0) != msiInvalid || cacheState(1) != msiShared {
		t.Fatalf("after evict: %d %d", cacheState(0), cacheState(1))
	}
	// Property holds along the whole run (it must: protocol is correct).
	for _, g := range p.GoodList {
		if !m.Eval(g, state) {
			t.Fatal("property violated on a legal run")
		}
	}
}

func TestCoherenceConfigValidation(t *testing.T) {
	for _, n := range []int{0, 1, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Caches=%d did not panic", n)
				}
			}()
			BuildCoherence(CoherenceConfig{Caches: n}).MustInstantiate(bdd.New())
		}()
	}
}
