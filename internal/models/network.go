package models

import (
	"fmt"

	"repro/internal/ir"
)

// NetworkConfig parameterizes the processors-and-network abstraction of
// Section IV.A: Procs processors nondeterministically issue requests into
// a non-message-order-preserving network (modelled, as in the paper, as a
// Procs-element array of messages, each carrying a valid bit, a req/ack
// flag, and a 4-bit return address), a server nondeterministically
// converts requests to acknowledgments, and each processor counts its
// outstanding messages.
type NetworkConfig struct {
	Procs int // number of processors; the paper assumes Procs < 16

	// Bug, if true, lets a processor consume any acknowledgment
	// regardless of its return address, corrupting the counters.
	Bug bool
}

// The paper fixes return addresses at 4 bits (n < 16).
const netAddrBits = 4

// netActions: the environment nondeterministically selects one of four
// actions per cycle; disabled actions stutter.
const (
	actIdle    = 0
	actIssue   = 1
	actServe   = 2
	actReceive = 3
)

// BuildNetwork builds the network model as manager-independent IR.
//
// The property — each processor's counter equals the number of its
// messages in flight — is the per-processor implicit conjunction the
// paper's tables annotate as "(n × k nodes)". It is also exposed as the
// functional-dependency declaration the FD baseline needs: each counter
// is a function of the network contents.
func BuildNetwork(cfg NetworkConfig) *ir.Model {
	n := cfg.Procs
	if n < 1 || n >= 16 {
		panic("models: network needs 1 <= Procs < 16")
	}
	slots := n // the paper models the network as an n-element array
	cw := 1
	for (1<<uint(cw))-1 < slots {
		cw++ // counter must hold up to `slots` outstanding messages
	}

	b := ir.NewBuilder(fmt.Sprintf("network-n%d", n))
	b.ParamInt("procs", n)
	b.ParamBool("bug", cfg.Bug)

	// Inputs: action selector, processor selector, slot selector.
	actV := b.Inputs("act", 2)
	procV := b.Inputs("psel", netAddrBits)
	slotV := b.Inputs("ssel", netAddrBits)

	// State, network first (the counters' defining functions read it):
	// per slot a valid bit, an ack flag, and the return address.
	valid := make([]*ir.Node, slots)
	ack := make([]*ir.Node, slots)
	addr := make([][]*ir.Node, slots)
	for s := 0; s < slots; s++ {
		valid[s] = b.State(fmt.Sprintf("net%d.v", s), false)
		ack[s] = b.State(fmt.Sprintf("net%d.a", s), false)
		addr[s] = b.States(fmt.Sprintf("net%d.id", s), netAddrBits, false)
	}
	counters := make([][]*ir.Node, n)
	for p := 0; p < n; p++ {
		counters[p] = b.States(fmt.Sprintf("cnt%d.", p), cw, false)
	}

	action := ir.FromNodes(actV)
	procSel := ir.FromNodes(procV)
	slotSel := ir.FromNodes(slotV)

	// Selectors must address real processors and slots.
	b.Constrain(ir.LtW(procSel, ir.ConstWord(uint64(n), netAddrBits)))
	b.Constrain(ir.LtW(slotSel, ir.ConstWord(uint64(slots), netAddrBits)))

	isIssue := ir.EqConstW(action, actIssue)
	isServe := ir.EqConstW(action, actServe)
	isRecv := ir.EqConstW(action, actReceive)

	// Per-slot enables.
	issueOK := ir.Bool(false) // chosen slot is free
	recvOK := ir.Bool(false)  // chosen slot holds an ack for procSel (or,
	// with the seeded bug, any ack at all)
	for s := 0; s < slots; s++ {
		selS := ir.EqConstW(slotSel, uint64(s))
		slotAddr := ir.FromNodes(addr[s])
		issueOK = ir.Or(issueOK, ir.And(selS, ir.Not(valid[s])))
		match := ir.EqW(slotAddr, procSel)
		if cfg.Bug {
			match = ir.Bool(true) // consume anyone's acknowledgment
		}
		recvOK = ir.Or(recvOK, ir.And(selS, valid[s], ack[s], match))
	}
	doIssue := ir.And(isIssue, issueOK)
	doRecv := ir.And(isRecv, recvOK)

	for s := 0; s < slots; s++ {
		selS := ir.EqConstW(slotSel, uint64(s))
		v, a := valid[s], ack[s]
		slotAddr := ir.FromNodes(addr[s])
		match := ir.EqW(slotAddr, procSel)
		if cfg.Bug {
			match = ir.Bool(true)
		}

		issueHere := ir.And(doIssue, selS, ir.Not(v))
		serveHere := ir.And(isServe, selS, v, ir.Not(a))
		recvHere := ir.And(doRecv, selS, v, a, match)

		b.SetNext(valid[s], ir.ITE(issueHere, ir.Bool(true), ir.ITE(recvHere, ir.Bool(false), v)))
		b.SetNext(ack[s], ir.ITE(issueHere, ir.Bool(false), ir.ITE(serveHere, ir.Bool(true), a)))
		for i := 0; i < netAddrBits; i++ {
			b.SetNext(addr[s][i], ir.ITE(issueHere, procSel.Bit(i), addr[s][i]))
		}
	}

	for p := 0; p < n; p++ {
		cnt := ir.FromNodes(counters[p])
		selP := ir.EqConstW(procSel, uint64(p))
		up := ir.And(doIssue, selP)
		down := ir.And(doRecv, selP)
		next := ir.MuxW(up, ir.IncW(cnt), ir.MuxW(down, ir.DecW(cnt), cnt))
		for i := 0; i < cw; i++ {
			b.SetNext(counters[p][i], next.Bit(i))
		}
	}

	// Property: counter_p == |{s : valid_s ∧ addr_s == p}| for each p —
	// one conjunct per processor, and simultaneously the functional
	// dependency defining the counter bits from the network state.
	for p := 0; p < n; p++ {
		flags := make([]*ir.Node, slots)
		for s := 0; s < slots; s++ {
			flags[s] = ir.And(valid[s], ir.EqConstW(ir.FromNodes(addr[s]), uint64(p)))
		}
		outstanding := ir.PopCountW(flags)
		if outstanding.Width() < cw {
			outstanding = outstanding.Extend(cw)
		} else if outstanding.Width() > cw {
			outstanding = outstanding.Truncate(cw) // cw chosen to fit; no loss
		}
		cnt := ir.FromNodes(counters[p])
		b.Good(ir.EqW(cnt, outstanding))
		for i := 0; i < cw; i++ {
			b.Dep(counters[p][i], outstanding.Bit(i))
		}
	}
	return b.Build()
}
