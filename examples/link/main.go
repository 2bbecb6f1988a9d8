// Link example: verifying an alternating-bit protocol over lossy
// channels — the "link-level protocols" of the paper's introduction.
//
// The environment may drop or stall frames and acknowledgments at will;
// the protocol's one-bit sequence numbers must still guarantee that a
// delivered word is the word the sender currently stands behind. The
// seeded bug removes the receiver's sequence check, and the resulting
// counterexample is the classic stale-retransmission hazard.
//
// Run with: go run ./examples/link
package main

import (
	"fmt"
	"log"

	"repro/internal/bdd"
	"repro/internal/models"
	"repro/internal/verify"
)

func main() {
	p := models.BuildLink(models.LinkConfig{DataBits: 4}).MustInstantiate(bdd.New())
	fmt.Printf("model: %s, %d state bits\n\n", p.Name, p.Machine.StateBits())

	for _, method := range []verify.Method{verify.Forward, verify.ForwardID, verify.XICI} {
		res := verify.Run(p, method, verify.Options{})
		fmt.Printf("%-5s -> %s\n", method, res)
		if res.Outcome != verify.Verified {
			log.Fatalf("%s failed: %s", method, res.Why)
		}
	}

	// Break the sequence check.
	bp := models.BuildLink(models.LinkConfig{DataBits: 4, Bug: true}).MustInstantiate(bdd.New())
	res := verify.Run(bp, verify.XICI, verify.Options{WantTrace: true})
	fmt.Printf("\nno-sequence-check bug -> %s\n", res)
	if res.Trace == nil {
		log.Fatal("expected a counterexample")
	}
	if err := res.Trace.Validate(bp.Machine, bp.GoodList); err != nil {
		log.Fatalf("trace failed replay: %v", err)
	}
	fmt.Printf(`
counterexample in %d steps: the sender retransmits before seeing the
acknowledgment, consumes the ack and moves to the next word — and the
buggy receiver then delivers the stale duplicate as if it were new:
`, res.Trace.Len())
	m := bp.Machine.M
	var interesting []bdd.Var
	for _, v := range bp.Machine.CurVars() {
		switch name := m.VarName(v); name {
		case "snd.seq", "fwd.full", "fwd.seq", "rcv.expect", "rcv.fresh", "rev.full", "rev.seq":
			interesting = append(interesting, v)
		}
	}
	if s, err := res.Trace.Format(m, interesting); err == nil {
		fmt.Print(s)
	}
}
