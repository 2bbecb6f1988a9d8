package models

import (
	"fmt"

	"repro/internal/ir"
)

// LinkConfig parameterizes an alternating-bit link protocol — the
// "link-level protocols" of the paper's introduction. A sender transmits
// data words over a lossy forward channel, tagging each frame with a
// one-bit sequence number; the receiver acknowledges over a lossy
// reverse channel. Loss and duplication are environment nondeterminism.
type LinkConfig struct {
	DataBits int // payload width

	// Bug, if true, makes the receiver deliver a frame without checking
	// the sequence bit, so a duplicated frame is delivered twice and
	// the delivered stream diverges from the sent stream.
	Bug bool
}

// BuildLink builds the alternating-bit protocol model as
// manager-independent IR.
//
// Model structure (one frame in flight, as in the classical ABP
// treatment):
//
//	sender:   seqS bit, current payload register;
//	fwd chan: full bit, frame payload, frame seq;
//	rcv:      seqR bit (next expected), last delivered payload;
//	rev chan: full bit, ack seq.
//
// Actions (environment-chosen): sender (re)sends, forward channel drops,
// receiver consumes (delivers or discards duplicate, then acks), reverse
// channel drops, sender consumes ack (advances and latches new nondet
// payload), idle. The safety property: whenever the receiver has just
// delivered, the delivered payload equals the sender's payload for that
// sequence number, and the protocol's control invariant (the
// seq/ack/expected bits form a coherent configuration) holds. Both
// decompose into small conjuncts.
func BuildLink(cfg LinkConfig) *ir.Model {
	w := cfg.DataBits
	if w < 1 || w > 16 {
		panic("models: link needs 1 <= DataBits <= 16")
	}

	b := ir.NewBuilder(fmt.Sprintf("abp-w%d", w))
	b.ParamInt("data-bits", w)
	b.ParamBool("bug", cfg.Bug)

	act := b.Inputs("act", 3)
	freshData := b.Inputs("fresh", w)

	// Sender.
	seqS := b.State("snd.seq", false)
	payload := b.States("snd.data", w, false)
	// Forward channel (capacity 1).
	fFull := b.State("fwd.full", false)
	fSeq := b.State("fwd.seq", false)
	fData := b.States("fwd.data", w, false)
	// Receiver.
	seqR := b.State("rcv.expect", false)
	delivered := b.States("rcv.data", w, false)
	justDelivered := b.State("rcv.fresh", false)
	// Reverse channel (capacity 1).
	rFull := b.State("rev.full", false)
	rSeq := b.State("rev.seq", false)

	action := ir.FromNodes(act)
	const (
		actSend = iota // sender (re)transmits its current frame
		actDropF
		actRecv // receiver consumes the frame, acks
		actDropR
		actAck // sender consumes a matching ack, advances
	)
	b.Constrain(ir.LtW(action, ir.ConstWord(6, 3)))

	is := func(a uint64) *ir.Node { return ir.EqConstW(action, a) }

	send := ir.And(is(actSend), ir.Not(fFull))
	dropF := ir.And(is(actDropF), fFull)
	recv := ir.And(is(actRecv), fFull, ir.Not(rFull))
	dropR := ir.And(is(actDropR), rFull)
	ackOK := ir.And(is(actAck), rFull, ir.Xnor(rSeq, seqS))
	ackStale := ir.And(is(actAck), rFull, ir.Xor(rSeq, seqS))

	// A received frame is new when its sequence bit matches the
	// receiver's expectation (the buggy receiver skips the check).
	frameNew := ir.Xnor(fSeq, seqR)
	if cfg.Bug {
		frameNew = ir.Bool(true)
	}
	deliver := ir.And(recv, frameNew)

	// Forward channel.
	b.SetNext(fFull, ir.ITE(send, ir.Bool(true), ir.ITE(ir.Or(dropF, recv), ir.Bool(false), fFull)))
	b.SetNext(fSeq, ir.ITE(send, seqS, fSeq))
	for i := 0; i < w; i++ {
		b.SetNext(fData[i], ir.ITE(send, payload[i], fData[i]))
	}

	// Receiver: deliver new frames, always ack with the frame's seq.
	b.SetNext(seqR, ir.ITE(deliver, ir.Not(seqR), seqR))
	for i := 0; i < w; i++ {
		b.SetNext(delivered[i], ir.ITE(deliver, fData[i], delivered[i]))
	}
	b.SetNext(justDelivered, deliver)

	// Reverse channel.
	b.SetNext(rFull, ir.ITE(recv, ir.Bool(true), ir.ITE(ir.Or(dropR, ackOK, ackStale), ir.Bool(false), rFull)))
	b.SetNext(rSeq, ir.ITE(recv, fSeq, rSeq))

	// Sender: on a matching ack, flip the sequence bit and latch a new
	// nondeterministic payload.
	b.SetNext(seqS, ir.ITE(ackOK, ir.Not(seqS), seqS))
	for i := 0; i < w; i++ {
		b.SetNext(payload[i], ir.ITE(ackOK, freshData[i], payload[i]))
	}

	// Property conjuncts.
	//
	// Data integrity: a just-delivered payload is the sender's payload,
	// provided the sender has not already advanced past it (after ackOK
	// the sender holds the NEXT word; then seqR == seqS again).
	// Concretely: justDelivered ∧ (seqR ≠ seqS) ⇒ delivered == payload —
	// per-bit conjuncts.
	senderStillOn := ir.Xor(seqR, seqS) // receiver advanced, sender not yet acked past
	for i := 0; i < w; i++ {
		eq := ir.Xnor(delivered[i], payload[i])
		b.Good(ir.Imp(ir.And(justDelivered, senderStillOn), eq))
	}
	// Control invariant: an in-flight frame carries the sender's current
	// sequence bit or the receiver already advanced past it; an ack in
	// flight never acknowledges a frame the sender has not sent.
	b.Good(ir.Imp(fFull, ir.Or(ir.Xnor(fSeq, seqS), ir.Xor(seqR, fSeq))))

	return b.Build()
}
