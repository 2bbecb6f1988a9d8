// Coherence example: verifying a directory-based MSI cache-coherence
// protocol — the workload class the paper's introduction names as the
// motivation for high-level BDD verification.
//
// The safety property decomposes per cache (single-writer-multiple-reader
// plus directory consistency), so it is a natural implicit conjunction;
// the directory bits are also a function of the cache states, so the
// same model exercises the FD engine.
//
// Run with: go run ./examples/coherence
package main

import (
	"fmt"
	"log"

	"repro/internal/bdd"
	"repro/internal/models"
	"repro/internal/verify"
)

func main() {
	const caches = 4

	p := models.BuildCoherence(models.CoherenceConfig{Caches: caches}).MustInstantiate(bdd.New())
	fmt.Printf("model: %s, %d state bits\n\n", p.Name, p.Machine.StateBits())

	for _, method := range []verify.Method{verify.Forward, verify.FD, verify.XICI} {
		res := verify.Run(p, method, verify.Options{})
		fmt.Printf("%-4s -> %s\n", method, res)
		if res.Outcome != verify.Verified {
			log.Fatalf("%s failed: %s", method, res.Why)
		}
	}

	// The classic coherence bug: upgrade without invalidation.
	bp := models.BuildCoherence(models.CoherenceConfig{Caches: caches, Bug: true}).MustInstantiate(bdd.New())
	res := verify.Run(bp, verify.XICI, verify.Options{WantTrace: true})
	fmt.Printf("\nupgrade-without-invalidate bug -> %s\n", res)
	if res.Trace == nil {
		log.Fatal("expected a counterexample")
	}
	if err := res.Trace.Validate(bp.Machine, bp.GoodList); err != nil {
		log.Fatalf("trace failed replay: %v", err)
	}
	fmt.Printf("counterexample in %d transactions: a read installs a shared\n", res.Trace.Len())
	fmt.Println("copy, then another cache takes ownership without invalidating")
	fmt.Println("it — two valid copies, one of them writable:")
	m := bp.Machine.M
	var interesting []bdd.Var
	for _, v := range bp.Machine.CurVars() {
		if name := m.VarName(v); len(name) > 0 && name[0] == 'c' {
			interesting = append(interesting, v)
		}
	}
	if s, err := res.Trace.Format(m, interesting); err == nil {
		fmt.Print(s)
	}
}
