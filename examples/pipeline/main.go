// Pipeline example: datapath equivalence checking — the paper's hardest
// workload (Section IV.B, Figure 3).
//
// A 3-stage pipelined processor (fetch / decode-execute / writeback, with
// a register bypass path and a branch stall) runs the same
// nondeterministic instruction stream as a non-pipelined specification
// delayed two cycles. The property is that the two register files always
// agree. XICI verifies it automatically; removing the bypass path yields
// a counterexample exhibiting the classic read-after-write hazard.
//
// Run with: go run ./examples/pipeline
package main

import (
	"fmt"
	"log"

	"repro/internal/bdd"
	"repro/internal/models"
	"repro/internal/verify"
)

func main() {
	cfg := models.DefaultPipeline(2, 2)
	p := models.BuildPipeline(cfg).MustInstantiate(bdd.New())
	fmt.Printf("model: %s, %d state bits, %d input bits\n",
		p.Name, p.Machine.StateBits(), p.Machine.InputBits())

	res := verify.Run(p, verify.XICI, verify.Options{})
	fmt.Println("XICI ->", res)
	if res.Outcome != verify.Verified {
		log.Fatalf("expected the pipeline to verify: %s", res.Why)
	}

	// Drop the bypass path: LD r1,#1 immediately followed by ADD r0,r1
	// reads the stale r1 in the pipeline but the fresh r1 in the spec.
	bug := cfg
	bug.Bug = true
	bp := models.BuildPipeline(bug).MustInstantiate(bdd.New())
	bres := verify.Run(bp, verify.XICI, verify.Options{WantTrace: true})
	fmt.Println("no-bypass bug ->", bres)
	if bres.Trace == nil {
		log.Fatal("expected a counterexample")
	}
	if err := bres.Trace.Validate(bp.Machine, []bdd.Ref{bp.Good}); err != nil {
		log.Fatalf("trace failed replay: %v", err)
	}
	fmt.Printf("\nread-after-write hazard surfaces after %d cycles:\n", bres.Trace.Len())

	// Print only the registers (the interesting part of the state).
	m := bp.Machine.M
	var regVars []bdd.Var
	for _, v := range bp.Machine.CurVars() {
		name := m.VarName(v)
		if len(name) > 0 && name[0] == 'r' { // ri*/rs* register file bits
			regVars = append(regVars, v)
		}
	}
	if s, err := bres.Trace.Format(m, regVars); err == nil {
		fmt.Print(s)
	}
	fmt.Println("\n(ri* = pipelined register file, rs* = specification's; the")
	fmt.Println("final step shows them diverging.)")
}
