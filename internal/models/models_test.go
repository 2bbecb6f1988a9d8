package models

import (
	"testing"

	"repro/internal/bdd"
	"repro/internal/verify"
)

// Cross-method agreement on small instances is the strongest end-to-end
// check available: four independent algorithms (two of which never build
// the same intermediate BDDs) must reach the same verdict.

func runAll(t *testing.T, p verify.Problem, methods []verify.Method, want verify.Outcome) {
	t.Helper()
	for _, method := range methods {
		res := verify.Run(p, method, verify.Options{})
		if res.Outcome != want {
			t.Fatalf("%s on %s: outcome %v (%s), want %v",
				method, p.Name, res.Outcome, res.Why, want)
		}
	}
}

var fourMethods = []verify.Method{verify.Forward, verify.Backward, verify.ICI, verify.XICI}

func TestFIFOVerifies(t *testing.T) {
	for _, depth := range []int{1, 2, 5} {
		p := BuildFIFO(DefaultFIFO(depth)).MustInstantiate(bdd.New())
		runAll(t, p, fourMethods, verify.Verified)
	}
}

func TestFIFOBugCaught(t *testing.T) {
	cfg := DefaultFIFO(3)
	cfg.Bug = true
	p := BuildFIFO(cfg).MustInstantiate(bdd.New())
	for _, method := range fourMethods {
		res := verify.Run(p, method, verify.Options{WantTrace: true})
		if res.Outcome != verify.Violated {
			t.Fatalf("%s: outcome %v, want violated", method, res.Outcome)
		}
		if res.Trace == nil {
			t.Fatalf("%s: missing trace", method)
		}
		if err := res.Trace.Validate(p.Machine, p.GoodList); err != nil {
			t.Fatalf("%s: trace invalid: %v", method, err)
		}
		// An over-bound value reaches slot 0 in one step: depth 1.
		if res.ViolationDepth != 1 {
			t.Fatalf("%s: violation depth %d, want 1", method, res.ViolationDepth)
		}
	}
}

func TestFIFOConjunctShape(t *testing.T) {
	// The paper reports per-slot conjuncts of ~9 nodes each for the
	// 8-bit, bound-128 FIFO, with XICI/ICI holding the list at exactly
	// depth-many conjuncts.
	p := BuildFIFO(DefaultFIFO(5)).MustInstantiate(bdd.New())
	res := verify.Run(p, verify.XICI, verify.Options{})
	if res.Outcome != verify.Verified {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if len(res.PeakProfile) != 5 {
		t.Fatalf("conjunct count %d, want 5 (profile %v)", len(res.PeakProfile), res.PeakProfile)
	}
	for _, s := range res.PeakProfile {
		if s > 12 {
			t.Fatalf("per-slot conjunct too big: %v", res.PeakProfile)
		}
	}
	// Converges immediately: the backimage of each slot constraint is
	// the previous slot's constraint, already in the list.
	if res.Iterations > 1 {
		t.Fatalf("XICI took %d iterations on the FIFO, want <= 1", res.Iterations)
	}
}

func TestFIFOMonolithicBlowupShape(t *testing.T) {
	// The monolithic property must be dramatically larger than the
	// implicit list (the paper's 32767-node G_i at depth 10): check the
	// relative shape at a modest depth.
	p := BuildFIFO(DefaultFIFO(8)).MustInstantiate(bdd.New())
	bk := verify.Run(p, verify.Backward, verify.Options{})
	xi := verify.Run(p, verify.XICI, verify.Options{})
	if bk.Outcome != verify.Verified || xi.Outcome != verify.Verified {
		t.Fatalf("outcomes %v %v", bk.Outcome, xi.Outcome)
	}
	if bk.PeakStateNodes < 8*xi.PeakStateNodes {
		t.Fatalf("expected monolithic blowup: Bkwd %d vs XICI %d nodes",
			bk.PeakStateNodes, xi.PeakStateNodes)
	}
}

func TestNetworkVerifies(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		p := BuildNetwork(NetworkConfig{Procs: n}).MustInstantiate(bdd.New())
		runAll(t, p, fourMethods, verify.Verified)
		// FD with the counter dependencies.
		res := verify.Run(p, verify.FD, verify.Options{})
		if res.Outcome != verify.Verified {
			t.Fatalf("FD on n=%d: %v (%s)", n, res.Outcome, res.Why)
		}
	}
}

func TestNetworkBugCaught(t *testing.T) {
	p := BuildNetwork(NetworkConfig{Procs: 2, Bug: true}).MustInstantiate(bdd.New())
	for _, method := range fourMethods {
		res := verify.Run(p, method, verify.Options{WantTrace: true})
		if res.Outcome != verify.Violated {
			t.Fatalf("%s: outcome %v, want violated", method, res.Outcome)
		}
		if err := res.Trace.Validate(p.Machine, p.GoodList); err != nil {
			t.Fatalf("%s: trace invalid: %v", method, err)
		}
	}
	// FD flags the same bug through the dependency failing.
	if res := verify.Run(p, verify.FD, verify.Options{}); res.Outcome != verify.Violated {
		t.Fatalf("FD: outcome %v, want violated", res.Outcome)
	}
}

func TestNetworkFDShrinksIterates(t *testing.T) {
	p := BuildNetwork(NetworkConfig{Procs: 3}).MustInstantiate(bdd.New())
	fd := verify.Run(p, verify.FD, verify.Options{})
	fwd := verify.Run(p, verify.Forward, verify.Options{})
	if fd.Outcome != verify.Verified || fwd.Outcome != verify.Verified {
		t.Fatalf("outcomes %v %v", fd.Outcome, fwd.Outcome)
	}
	// The FD row of Table 1 shows much smaller R_i (41 vs 1198 nodes):
	// the counters are projected away.
	if fd.PeakStateNodes*4 > fwd.PeakStateNodes {
		t.Fatalf("FD peak %d not well below Forward peak %d", fd.PeakStateNodes, fwd.PeakStateNodes)
	}
}

func TestFilterVerifiesSmall(t *testing.T) {
	// Narrow samples keep the monolithic engines workable for the
	// cross-check.
	for _, depth := range []int{2, 4} {
		cfg := FilterConfig{Depth: depth, SampleWidth: 3}
		p := BuildFilter(cfg).MustInstantiate(bdd.New())
		runAll(t, p, fourMethods, verify.Verified)

		cfg.Assist = true
		pa := BuildFilter(cfg).MustInstantiate(bdd.New())
		runAll(t, pa, []verify.Method{verify.ICI, verify.XICI}, verify.Verified)
	}
}

func TestFilterBugCaught(t *testing.T) {
	cfg := FilterConfig{Depth: 4, SampleWidth: 3, Bug: true}
	p := BuildFilter(cfg).MustInstantiate(bdd.New())
	for _, method := range fourMethods {
		res := verify.Run(p, method, verify.Options{WantTrace: true})
		if res.Outcome != verify.Violated {
			t.Fatalf("%s: outcome %v, want violated", method, res.Outcome)
		}
		if err := res.Trace.Validate(p.Machine, []bdd.Ref{p.Good}); err != nil {
			t.Fatalf("%s: trace invalid: %v", method, err)
		}
	}
}

func TestFilterXICIDerivesLayerInvariants(t *testing.T) {
	// Table 2's headline: without assisting invariants XICI still
	// verifies, holding one conjunct per adder-tree layer — the derived
	// assisting invariants.
	cfg := FilterConfig{Depth: 4, SampleWidth: 4}
	p := BuildFilter(cfg).MustInstantiate(bdd.New())
	res := verify.Run(p, verify.XICI, verify.Options{})
	if res.Outcome != verify.Verified {
		t.Fatalf("outcome %v (%s)", res.Outcome, res.Why)
	}
	if len(res.PeakProfile) < 2 {
		t.Fatalf("expected a derived multi-conjunct list, got profile %v", res.PeakProfile)
	}

	// With the user-supplied invariants the conjunct count matches the
	// layer count and the peak is no larger.
	cfg.Assist = true
	pa := BuildFilter(cfg).MustInstantiate(bdd.New())
	ra := verify.Run(pa, verify.XICI, verify.Options{})
	if ra.Outcome != verify.Verified {
		t.Fatalf("assisted outcome %v", ra.Outcome)
	}
	if len(ra.PeakProfile) != 2 { // log2(4) layers
		t.Fatalf("assisted conjunct count %d, want 2 (profile %v)", len(ra.PeakProfile), ra.PeakProfile)
	}
}

func TestPipelineVerifies(t *testing.T) {
	for _, cfg := range []PipelineConfig{
		{Regs: 2, Width: 1},
		{Regs: 2, Width: 2},
		{Regs: 4, Width: 1},
	} {
		p := BuildPipeline(cfg).MustInstantiate(bdd.New())
		runAll(t, p, fourMethods, verify.Verified)
	}
}

func TestPipelineBypassBugCaught(t *testing.T) {
	p := BuildPipeline(PipelineConfig{Regs: 2, Width: 1, Bug: true}).MustInstantiate(bdd.New())
	for _, method := range fourMethods {
		res := verify.Run(p, method, verify.Options{WantTrace: true})
		if res.Outcome != verify.Violated {
			t.Fatalf("%s: outcome %v, want violated", method, res.Outcome)
		}
		if err := res.Trace.Validate(p.Machine, []bdd.Ref{p.Good}); err != nil {
			t.Fatalf("%s: trace invalid: %v", method, err)
		}
		// The shortest failure needs a LD to enter the latch and a
		// dependent op to read stale data, then a writeback: depth >= 3.
		if res.ViolationDepth < 3 {
			t.Fatalf("%s: suspiciously short violation depth %d", method, res.ViolationDepth)
		}
	}
}

func TestPipelineAssistPartition(t *testing.T) {
	cfg := PipelineConfig{Regs: 2, Width: 2, Assist: true}
	p := BuildPipeline(cfg).MustInstantiate(bdd.New())
	if len(p.GoodList) != 2 {
		t.Fatalf("assist partition has %d conjuncts, want 2", len(p.GoodList))
	}
	res := verify.Run(p, verify.XICI, verify.Options{})
	if res.Outcome != verify.Verified {
		t.Fatalf("outcome %v", res.Outcome)
	}
}

func TestModelConfigValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"fifo-zero-depth":    func() { BuildFIFO(FIFOConfig{Width: 8}).MustInstantiate(bdd.New()) },
		"network-zero":       func() { BuildNetwork(NetworkConfig{}).MustInstantiate(bdd.New()) },
		"network-too-big":    func() { BuildNetwork(NetworkConfig{Procs: 16}).MustInstantiate(bdd.New()) },
		"filter-not-pow2":    func() { BuildFilter(FilterConfig{Depth: 3, SampleWidth: 4}).MustInstantiate(bdd.New()) },
		"filter-zero-width":  func() { BuildFilter(FilterConfig{Depth: 4}).MustInstantiate(bdd.New()) },
		"pipeline-not-pow2":  func() { BuildPipeline(PipelineConfig{Regs: 3, Width: 1}).MustInstantiate(bdd.New()) },
		"pipeline-zero-bits": func() { BuildPipeline(PipelineConfig{Regs: 2}).MustInstantiate(bdd.New()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: invalid config did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestReachabilityInvariants drives the simulation path: random walks
// from the initial state must stay inside the symbolic reachable set.
func TestReachabilityInvariants(t *testing.T) {
	p := BuildNetwork(NetworkConfig{Procs: 2}).MustInstantiate(bdd.New())
	reach, _, err := verify.ReachableStates(p, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ma := p.Machine
	m := ma.M
	state := m.SatAssignment(ma.Init())
	for step := 0; step < 30; step++ {
		if !m.Eval(reach, state) {
			t.Fatalf("simulated state escaped the reachable set at step %d", step)
		}
		next, ok := ma.PickTransitionInto(state, bdd.One)
		if !ok {
			t.Fatal("no enabled transition")
		}
		var err error
		state, err = ma.Step(next)
		if err != nil {
			t.Fatal(err)
		}
	}
}
