// FIFO example: the paper's typed-queue workload end to end.
//
// A depth-6, 8-bit-wide queue carries values obeying a type constraint
// (value <= 128). The property — every slot always holds a typed value —
// is the canonical "huge monolithic BDD, tiny implicit conjunction" case:
// the monolithic good-state BDD interleaves the comparisons of all slots
// and grows exponentially with depth, while the per-slot list stays at a
// handful of nodes per slot.
//
// The example verifies the queue with the monolithic backward traversal
// and with XICI, prints the node-count gap, then seeds a bug (an untyped
// writer) and prints the counterexample trace.
//
// Run with: go run ./examples/fifo
package main

import (
	"fmt"
	"log"

	"repro/internal/bdd"
	"repro/internal/models"
	"repro/internal/verify"
)

func main() {
	const depth = 6

	m := bdd.New()
	p := models.BuildFIFO(models.DefaultFIFO(depth)).MustInstantiate(m)

	fmt.Printf("model: %s, %d state bits, %d input bits\n\n",
		p.Name, p.Machine.StateBits(), p.Machine.InputBits())

	bk := verify.Run(p, verify.Backward, verify.Options{})
	xi := verify.Run(p, verify.XICI, verify.Options{})
	fmt.Println("monolithic backward:", bk)
	fmt.Println("implicit (XICI):    ", xi)
	if bk.Outcome != verify.Verified || xi.Outcome != verify.Verified {
		log.Fatal("expected both engines to verify the typed FIFO")
	}
	fmt.Printf("\nG_i node counts: monolithic %d vs implicit %d %v — the\n",
		bk.PeakStateNodes, xi.PeakStateNodes, xi.PeakProfile)
	fmt.Println("implicit conjunction keeps one small BDD per slot instead of")
	fmt.Println("one interleaved comparison over the whole queue.")

	// Seed the bug: the writer stops respecting the type constraint.
	cfg := models.DefaultFIFO(3)
	cfg.Bug = true
	bp := models.BuildFIFO(cfg).MustInstantiate(bdd.New())
	res := verify.Run(bp, verify.XICI, verify.Options{WantTrace: true})
	fmt.Printf("\nseeded bug -> %s\n", res)
	if res.Trace == nil {
		log.Fatal("expected a counterexample trace")
	}
	if err := res.Trace.Validate(bp.Machine, bp.GoodList); err != nil {
		log.Fatalf("trace failed replay: %v", err)
	}
	fmt.Println("counterexample (replayed and validated on the machine):")
	if s, err := res.Trace.Format(bp.Machine.M, bp.Machine.CurVars()); err == nil {
		fmt.Print(s)
	}
}
