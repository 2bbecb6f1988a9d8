// FD on declared dependencies that do not hold. In package verify_test
// because the problems come from internal/lang and internal/zoo, which
// import verify.
package verify_test

import (
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/lang"
	"repro/internal/verify"
	"repro/internal/zoo"
)

// TestFDRefutedDependencyIsNoVerdict: a declared dependency is user
// input, not the property. When it fails on a reachable state where the
// property holds, FD gives no verdict (Exhausted, cause "other", a Why
// naming the declaration), while the engines that ignore declarations
// verify the property. In the first model d copies t one step late, so
// (dep d t) fails at depth 1; in the second t starts at 1, so it fails
// on the initial state.
func TestFDRefutedDependencyIsNoVerdict(t *testing.T) {
	for _, tc := range []struct{ name, src, why string }{
		{"late", "(state t :init 0 :next (not t))\n(state d :init 0 :next t)\n(state z :init 0 :next z)\n(good (not z))\n(dep d t)",
			"at depth 1"},
		{"initial", "(state t :init 1 :next (not t))\n(state d :init 0 :next t)\n(state z :init 0 :next z)\n(good (not z))\n(dep d t)",
			"at depth 0"},
	} {
		run := func(meth verify.Method) verify.Result {
			p, err := lang.Parse(bdd.New(), tc.src, tc.name)
			if err != nil {
				t.Fatal(err)
			}
			return verify.Run(p, meth, verify.Options{WantTrace: true})
		}
		res := run(verify.FD)
		if res.Outcome != verify.Exhausted || res.Cause() != "other" || res.Trace != nil {
			t.Errorf("%s: FD %v cause %q (%s), want exhausted/other", tc.name, res.Outcome, res.Cause(), res.Why)
		}
		if !strings.Contains(res.Why, "dependency for d") || !strings.Contains(res.Why, tc.why) {
			t.Errorf("%s: FD why %q does not name the refuted declaration and its depth", tc.name, res.Why)
		}
		for _, meth := range []verify.Method{verify.Forward, verify.XICI} {
			if r := run(meth); r.Outcome != verify.Verified {
				t.Errorf("%s: %s %v, want verified", tc.name, meth, r.Outcome)
			}
		}
	}
}

// TestFDBuggyNetworkTrace: the seeded network bug breaks the declared
// dependency one step before it breaks the property. FD must find the
// violation at the depth forward traversal finds it, with a trace that
// replays.
func TestFDBuggyNetworkTrace(t *testing.T) {
	for _, procs := range []int{2, 4} {
		mo, err := zoo.Build("network", zoo.Size{"procs": procs, "bug": 1})
		if err != nil {
			t.Fatal(err)
		}
		p := mo.MustInstantiate(bdd.New())
		res := verify.Run(p, verify.FD, verify.Options{WantTrace: true})
		if res.Outcome != verify.Violated || res.ViolationDepth != 3 || res.Iterations != 3 {
			t.Fatalf("procs=%d: FD %v depth %d iterations %d (%s), want violated at depth 3",
				procs, res.Outcome, res.ViolationDepth, res.Iterations, res.Why)
		}
		if res.Trace == nil || res.Trace.Len() != 3 {
			t.Fatalf("procs=%d: FD trace %v, want 3 steps", procs, res.Trace)
		}
		goods := p.GoodList
		if len(goods) == 0 {
			goods = []bdd.Ref{p.Good}
		}
		if err := res.Trace.Validate(p.Machine, goods); err != nil {
			t.Errorf("procs=%d: %v", procs, err)
		}
		fwd := verify.Run(mo.MustInstantiate(bdd.New()), verify.Forward, verify.Options{})
		if fwd.Outcome != verify.Violated || fwd.ViolationDepth != res.ViolationDepth {
			t.Errorf("procs=%d: Fwd %v depth %d, FD depth %d", procs, fwd.Outcome, fwd.ViolationDepth, res.ViolationDepth)
		}
	}
}
