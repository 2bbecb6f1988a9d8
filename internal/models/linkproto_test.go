package models

import (
	"testing"

	"repro/internal/bdd"
	"repro/internal/verify"
)

func TestLinkVerifies(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		p := BuildLink(LinkConfig{DataBits: w}).MustInstantiate(bdd.New())
		runAll(t, p, fourMethods, verify.Verified)
	}
}

func TestLinkBugCaught(t *testing.T) {
	p := BuildLink(LinkConfig{DataBits: 2, Bug: true}).MustInstantiate(bdd.New())
	for _, method := range fourMethods {
		res := verify.Run(p, method, verify.Options{WantTrace: true})
		if res.Outcome != verify.Violated {
			t.Fatalf("%s: outcome %v, want violated", method, res.Outcome)
		}
		if err := res.Trace.Validate(p.Machine, p.GoodList); err != nil {
			t.Fatalf("%s: trace invalid: %v", method, err)
		}
		// The hazard needs a full round trip plus a stale redelivery:
		// send, deliver+ack, resend, ack consumed, stale redelivery.
		if res.ViolationDepth < 5 {
			t.Fatalf("%s: suspiciously short violation depth %d", method, res.ViolationDepth)
		}
	}
}

// TestLinkSimulation replays the canonical happy path and the stale
// frame scenario concretely.
func TestLinkSimulation(t *testing.T) {
	m := bdd.New()
	p := BuildLink(LinkConfig{DataBits: 2}).MustInstantiate(m)
	ma := p.Machine

	iv := ma.InputVars()
	state := m.SatAssignment(ma.Init())
	step := func(action uint64, fresh uint64) {
		t.Helper()
		in := append([]bool(nil), state...)
		for b := 0; b < 3; b++ {
			in[iv[b]] = action&(1<<uint(b)) != 0
		}
		for b := 0; b < 2; b++ {
			in[iv[3+b]] = fresh&(1<<uint(b)) != 0
		}
		next, err := ma.Step(in)
		if err != nil {
			t.Fatalf("step rejected: %v", err)
		}
		state = next
	}
	bit := func(name string) bool {
		for _, v := range ma.CurVars() {
			if m.VarName(v) == name {
				return state[v]
			}
		}
		t.Fatalf("no state bit %q", name)
		return false
	}

	step(0, 0) // send frame(0, payload=0)
	if !bit("fwd.full") || bit("fwd.seq") {
		t.Fatal("send did not enqueue frame 0")
	}
	step(2, 0) // receiver delivers, acks
	if bit("fwd.full") || !bit("rev.full") || !bit("rcv.expect") || !bit("rcv.fresh") {
		t.Fatal("deliver/ack bookkeeping wrong")
	}
	step(0, 0) // sender RESENDS frame 0 before seeing the ack
	if !bit("fwd.full") {
		t.Fatal("resend failed")
	}
	step(4, 3) // sender consumes ack, advances to seq 1, latches payload 3
	if !bit("snd.seq") || bit("rev.full") {
		t.Fatal("ack consumption wrong")
	}
	// The stale frame(0) is still in flight; the receiver must discard
	// it (no delivery) while still acknowledging.
	step(2, 0)
	if bit("rcv.fresh") {
		t.Fatal("stale frame was delivered")
	}
	if !bit("rev.full") || bit("rev.seq") {
		t.Fatal("stale frame was not re-acknowledged")
	}
	// Property holds throughout (checked at the end state).
	for _, g := range p.GoodList {
		if !m.Eval(g, state) {
			t.Fatal("property violated on a legal run")
		}
	}
}

func TestLinkConfigValidation(t *testing.T) {
	for _, w := range []int{0, 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("DataBits=%d did not panic", w)
				}
			}()
			BuildLink(LinkConfig{DataBits: w}).MustInstantiate(bdd.New())
		}()
	}
}
