package verify

import (
	"testing"

	"repro/internal/bdd"
	"repro/internal/fsm"
	"repro/internal/resource"
)

func TestPDRVerifiesTypedFIFO(t *testing.T) {
	p, _ := tinyFIFO(t, 3, 3, 5, false)
	res := Run(p, PDR, Options{})
	if res.Outcome != Verified {
		t.Fatalf("outcome %v (%s)", res.Outcome, res.Why)
	}
	if res.Iterations <= 0 {
		t.Fatal("verified with no frame levels")
	}
	if res.PeakStateNodes <= 0 {
		t.Fatal("no peak node count")
	}
}

func TestPDRFindsShortestCounterexample(t *testing.T) {
	p, ma := tinyFIFO(t, 3, 3, 5, true)
	fwd := Run(p, Forward, Options{WantTrace: true})
	pdr := Run(p, PDR, Options{WantTrace: true})
	if fwd.Outcome != Violated || pdr.Outcome != Violated {
		t.Fatalf("outcomes: fwd %v, pdr %v", fwd.Outcome, pdr.Outcome)
	}
	if pdr.ViolationDepth != fwd.ViolationDepth {
		t.Fatalf("PDR depth %d, forward (shortest) depth %d", pdr.ViolationDepth, fwd.ViolationDepth)
	}
	if pdr.Trace == nil {
		t.Fatal("no trace")
	}
	if pdr.Trace.Len() != pdr.ViolationDepth {
		t.Fatalf("trace length %d != depth %d", pdr.Trace.Len(), pdr.ViolationDepth)
	}
	if err := pdr.Trace.Validate(ma, p.goodList()); err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
}

// TestPDRDepthZeroViolation: an initial state already violating the
// property is reported at depth 0 with an empty (but valid) trace.
func TestPDRDepthZeroViolation(t *testing.T) {
	m := bdd.New()
	ma := fsm.New(m)
	x := ma.NewStateBit("x")
	ma.SetNext(x, bdd.One)
	ma.SetInit(m.NVarRef(x))
	ma.MustSeal()
	p := Problem{Machine: ma, GoodList: []bdd.Ref{m.VarRef(x)}, Name: "depth0"}

	res := Run(p, PDR, Options{WantTrace: true})
	if res.Outcome != Violated || res.ViolationDepth != 0 {
		t.Fatalf("outcome %v depth %d, want violated at depth 0", res.Outcome, res.ViolationDepth)
	}
	if res.Trace == nil || res.Trace.Len() != 0 {
		t.Fatalf("depth-0 trace: %+v", res.Trace)
	}
	if err := res.Trace.Validate(ma, p.goodList()); err != nil {
		t.Fatalf("invalid depth-0 trace: %v", err)
	}
}

func TestPDRNodeLimitExhaustion(t *testing.T) {
	p, _ := tinyFIFO(t, 4, 4, 9, false)
	res := Run(p, PDR, Options{Budget: resource.Budget{NodeLimit: 50}})
	if res.Outcome != Exhausted {
		t.Fatalf("outcome %v, want exhausted", res.Outcome)
	}
	if res.Why == "" {
		t.Fatal("no exhaustion reason")
	}
	// The manager stays usable after the abort.
	if res2 := Run(p, PDR, Options{}); res2.Outcome != Verified {
		t.Fatalf("manager unusable after exhaustion: %v (%s)", res2.Outcome, res2.Why)
	}
}

// TestPDRFramePolicyAblation: skipping the Section III.A frame policy
// (no cross-simplification, no greedy merging) changes effort only,
// never verdicts or depths.
func TestPDRFramePolicyAblation(t *testing.T) {
	for _, bug := range []bool{false, true} {
		p, _ := tinyFIFO(t, 3, 2, 4, bug)
		base := Run(p, PDR, Options{})
		var opt Options
		opt.Core.SkipSimplify = true
		opt.Core.SkipEvaluate = true
		abl := Run(p, PDR, opt)
		if abl.Outcome != base.Outcome || abl.ViolationDepth != base.ViolationDepth {
			t.Fatalf("bug=%v: ablation (%v, depth %d) vs base (%v, depth %d)",
				bug, abl.Outcome, abl.ViolationDepth, base.Outcome, base.ViolationDepth)
		}
	}
}

// TestPDRWithGC: frames and learned clauses must be protected across
// collections; a per-level GC cadence changes nothing.
func TestPDRWithGC(t *testing.T) {
	p, _ := tinyFIFO(t, 3, 3, 5, false)
	if res := Run(p, PDR, Options{GCEvery: 1}); res.Outcome != Verified {
		t.Fatalf("PDR with GC: %v (%s)", res.Outcome, res.Why)
	}
	pb, ma := tinyFIFO(t, 3, 3, 5, true)
	res := Run(pb, PDR, Options{GCEvery: 1, WantTrace: true})
	if res.Outcome != Violated || res.Trace == nil {
		t.Fatalf("PDR with GC on bug: %v", res.Outcome)
	}
	if err := res.Trace.Validate(ma, pb.goodList()); err != nil {
		t.Fatal(err)
	}
}

// TestResolveMethodNames: the case-insensitive lookup behind the
// -engines flags and the icid engine option.
func TestResolveMethodNames(t *testing.T) {
	cases := []struct {
		in   string
		want Method
		ok   bool
	}{
		{"PDR", PDR, true},
		{"pdr", PDR, true},
		{"Pdr", PDR, true},
		{"XICI", XICI, true},
		{"xici", XICI, true},
		{"fwdid", ForwardID, true},
		{"nope", "", false},
		{"", "", false},
	}
	for _, tc := range cases {
		got, ok := Resolve(tc.in)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("Resolve(%q) = (%v, %v), want (%v, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}
