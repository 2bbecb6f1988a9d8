package zoo

import (
	"slices"
	"testing"

	"repro/internal/bdd"
	"repro/internal/resource"
	"repro/internal/verify"
)

// TestSmoke is the registry acceptance gate (mirrored by the CI
// zoo-smoke job): every registered entry must build at its smallest
// size, instantiate, and produce an agreeing definite verdict from two
// engines under a small budget.
func TestSmoke(t *testing.T) {
	if len(Names()) < 10 {
		t.Fatalf("registry has %d entries, want >= 10", len(Names()))
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, ok := Get(name)
			if !ok {
				t.Fatal("entry vanished")
			}
			mo, err := e.Model(e.Sizes[0])
			if err != nil {
				t.Fatalf("build at smallest size: %v", err)
			}

			prob, err := mo.Instantiate(bdd.New())
			if err != nil {
				t.Fatalf("instantiate: %v", err)
			}
			var first verify.Outcome
			for i, method := range []verify.Method{verify.Forward, verify.XICI} {
				res := verify.Run(prob, method, verify.Options{
					Budget: resource.Budget{NodeLimit: 4 << 20},
				})
				if res.Outcome != verify.Verified && res.Outcome != verify.Violated {
					t.Fatalf("%s: indefinite outcome %v (%s)", method, res.Outcome, res.Cause())
				}
				if i == 0 {
					first = res.Outcome
				} else if res.Outcome != first {
					t.Fatalf("%s: outcome %v disagrees with %v", method, res.Outcome, first)
				}
			}
		})
	}
}

// TestBuggedVariantsViolate pins the seeded bug of each new family:
// a registered bug that stops violating has gone dead.
func TestBuggedVariantsViolate(t *testing.T) {
	cases := []struct {
		name string
		size Size
	}{
		{"elevator", Size{"floors": 2, "bug": 1}},
		{"traffic", Size{"roads": 2, "bug": 1}},
		{"protostack", Size{"layers": 2, "bug": 1}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			mo, err := Build(tc.name, tc.size)
			if err != nil {
				t.Fatal(err)
			}
			prob := mo.MustInstantiate(bdd.New())
			res := verify.Run(prob, verify.Forward, verify.Options{WantTrace: true})
			if res.Outcome != verify.Violated {
				t.Fatalf("bugged %s: outcome %v, want Violated", tc.name, res.Outcome)
			}
			gl := prob.GoodList
			if len(gl) == 0 {
				gl = []bdd.Ref{prob.Good}
			}
			if err := res.Trace.Validate(prob.Machine, gl); err != nil {
				t.Fatalf("bugged %s: trace does not replay: %v", tc.name, err)
			}
		})
	}
}

// TestTable2FilterCounts pins Table 2's unassisted 8-bit filter under
// XICI to the paper's exact counts: verdict, iterations, peak iterate
// nodes and the conjunct profile at the peak.
func TestTable2FilterCounts(t *testing.T) {
	cases := []struct {
		depth, iterations, nodes int
		profile                  []int
	}{
		{4, 2, 146, []int{45, 102}},
		{8, 3, 638, []int{81, 169, 390}},
	}
	for _, tc := range cases {
		mo, err := Build("filter", Size{"depth": tc.depth, "width": 8})
		if err != nil {
			t.Fatal(err)
		}
		res := verify.Run(mo.MustInstantiate(bdd.New()), verify.XICI, verify.Options{
			Budget: resource.Budget{NodeLimit: 4 << 20},
		})
		if res.Outcome != verify.Verified || res.Iterations != tc.iterations ||
			res.PeakStateNodes != tc.nodes || !slices.Equal(res.PeakProfile, tc.profile) {
			t.Errorf("depth %d: %v in %d iterations, %d nodes %v; want Verified in %d, %d nodes %v",
				tc.depth, res.Outcome, res.Iterations, res.PeakStateNodes, res.PeakProfile,
				tc.iterations, tc.nodes, tc.profile)
		}
	}
}

// TestFIFOGrowthLaws pins the closed forms behind Table 1's FIFO rows,
// at width 8 and depth d: the implicit conjunction grows linearly and
// the monolithic BDD exponentially. ICI and XICI peak at 8d + 1 nodes,
// d conjuncts of 9; Bkwd peaks at (3d + 2)·2^d - 1 nodes, which is 543
// at d5 and 32,767 at d10, as in the paper.
func TestFIFOGrowthLaws(t *testing.T) {
	for d := 1; d <= 10; d++ {
		mo, err := Build("fifo", Size{"depth": d})
		if err != nil {
			t.Fatal(err)
		}
		p := mo.MustInstantiate(bdd.New())
		slots := make([]int, d)
		for i := range slots {
			slots[i] = 9
		}
		for _, law := range []struct {
			method  verify.Method
			nodes   int
			profile []int
		}{
			{verify.ICI, 8*d + 1, slots},
			{verify.XICI, 8*d + 1, slots},
			{verify.Backward, (3*d+2)<<d - 1, nil}, // monolithic: no profile
		} {
			res := verify.Run(p, law.method, verify.Options{})
			if res.Outcome != verify.Verified || res.PeakStateNodes != law.nodes ||
				!slices.Equal(res.PeakProfile, law.profile) {
				t.Errorf("d%d %s: %v, peak %d nodes %v; want Verified, %d nodes %v",
					d, law.method, res.Outcome, res.PeakStateNodes, res.PeakProfile, law.nodes, law.profile)
			}
		}
	}
}

// TestUnknownParameterRejected checks the user-facing size validation
// (the icid builtin endpoint path).
func TestUnknownParameterRejected(t *testing.T) {
	if _, err := Build("fifo", Size{"depht": 3}); err == nil {
		t.Fatal("misspelled parameter accepted")
	}
	if _, err := Build("no-such-model", nil); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := Build("fifo", Size{"depth": -1}); err == nil {
		t.Fatal("invalid size accepted")
	}
}
