// Network example: protocol-style verification with three different
// methods exploiting three different structures.
//
// Processors fire requests into an unordered network; a server turns
// requests into acknowledgments; each processor counts its outstanding
// messages. The property — every counter equals the number of that
// processor's in-flight messages — can be verified:
//
//   - monolithically (forward traversal over the full state space),
//   - as a per-processor implicit conjunction (XICI), and
//   - as a functional dependency (FD): the counters are a function of
//     the network contents, so the traversal can project them away.
//
// Run with: go run ./examples/network
package main

import (
	"fmt"
	"log"

	"repro/internal/bdd"
	"repro/internal/models"
	"repro/internal/verify"
)

func main() {
	const procs = 3

	fmt.Printf("processors: %d (network of %d unordered slots)\n\n", procs, procs)
	for _, method := range []verify.Method{verify.Forward, verify.FD, verify.XICI} {
		p := models.BuildNetwork(models.NetworkConfig{Procs: procs}).MustInstantiate(bdd.New())
		res := verify.Run(p, method, verify.Options{})
		fmt.Printf("%-4s -> %s\n", method, res)
		if res.Outcome != verify.Verified {
			log.Fatalf("%s failed: %s", method, res.Why)
		}
	}

	fmt.Println(`
Note the shapes: FD's iterates are tiny (counters projected away) at the
cost of more iterations; XICI converges immediately because the backward
image of each per-processor conjunct is implied by the list itself.`)

	// The classic protocol bug: a processor consumes an acknowledgment
	// addressed to someone else.
	bp := models.BuildNetwork(models.NetworkConfig{Procs: 2, Bug: true}).MustInstantiate(bdd.New())
	res := verify.Run(bp, verify.XICI, verify.Options{WantTrace: true})
	fmt.Printf("misrouted-ack bug -> %s\n", res)
	if res.Trace == nil {
		log.Fatal("expected a counterexample")
	}
	if err := res.Trace.Validate(bp.Machine, bp.GoodList); err != nil {
		log.Fatalf("trace failed replay: %v", err)
	}
	fmt.Printf("counterexample has %d steps: issue, serve, then the wrong\n", res.Trace.Len())
	fmt.Println("processor receives the acknowledgment and the counters diverge.")
}
