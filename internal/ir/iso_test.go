package ir_test

import (
	"testing"

	"repro/internal/bdd"
	"repro/internal/ir"
	"repro/internal/verify"
	"repro/internal/zoo"
)

// buildZoo fetches one small member per parameterized family; these
// replicate components by construction, so the isomorphism pass must
// fire on them.
func buildZoo(t *testing.T, entry string, size zoo.Size) *ir.Model {
	t.Helper()
	mo, err := zoo.Build(entry, size)
	if err != nil {
		t.Fatal(err)
	}
	return mo
}

// TestIsoInstantiateMatchesBaseline: the template-and-Transfer pass is
// transparent — every function of the instantiated problem equals the
// one direct evaluation builds. The two paths run on separate managers
// (construction order differs, so raw Ref values may too); equality is
// checked by transferring the baseline onto the iso manager, where
// canonicity makes function equality Ref equality.
func TestIsoInstantiateMatchesBaseline(t *testing.T) {
	members := []struct {
		entry string
		size  zoo.Size
	}{
		{"fifo", zoo.Size{"width": 3, "depth": 2, "bound": 5}},
		{"network", zoo.Size{"procs": 2}},
		{"filter", zoo.Size{"depth": 4, "width": 2}},
		{"pipeline", zoo.Size{"regs": 2, "width": 2}},
		{"coherence", zoo.Size{"caches": 2}},
		{"elevator", zoo.Size{"floors": 3}},
	}
	for _, mb := range members {
		mb := mb
		t.Run(mb.entry, func(t *testing.T) {
			mo := buildZoo(t, mb.entry, mb.size)

			ma, mbase := bdd.New(), bdd.New()
			pIso, err := mo.Instantiate(ma)
			if err != nil {
				t.Fatal(err)
			}
			pBase, err := mo.InstantiateNoIso(mbase)
			if err != nil {
				t.Fatal(err)
			}

			same := func(what string, a, b bdd.Ref) {
				if got := bdd.Transfer(ma, mbase, b, nil); got != a {
					t.Errorf("%s differs between iso and baseline instantiation", what)
				}
			}
			same("init", pIso.Machine.Init(), pBase.Machine.Init())
			same("constraint", pIso.Machine.InputConstraint(), pBase.Machine.InputConstraint())
			same("goal", pIso.Good, pBase.Good)
			if len(pIso.GoodList) != len(pBase.GoodList) {
				t.Fatal("good-list lengths differ")
			}
			for i := range pIso.GoodList {
				same("good conjunct", pIso.GoodList[i], pBase.GoodList[i])
			}
			curA, curB := pIso.Machine.CurVars(), pBase.Machine.CurVars()
			if len(curA) != len(curB) {
				t.Fatal("state-bit counts differ")
			}
			for i, v := range curA {
				same("next-state function", pIso.Machine.NextFn(v), pBase.Machine.NextFn(curB[i]))
			}
		})
	}
}

// TestIsoClassesDetected: families that replicate components with
// nontrivial next-state logic produce classes, and a family whose
// replicas are bare shift wires (one-node DAGs, cheaper to evaluate
// directly than to template) produces none.
func TestIsoClassesDetected(t *testing.T) {
	for _, e := range []struct {
		entry string
		size  zoo.Size
	}{
		{"network", zoo.Size{"procs": 3}},
		{"filter", zoo.Size{"depth": 4, "width": 2}},
	} {
		e := e
		t.Run(e.entry, func(t *testing.T) {
			mo := buildZoo(t, e.entry, e.size)
			classes, err := ir.IsoClasses(mo)
			if err != nil {
				t.Fatal(err)
			}
			if len(classes) == 0 {
				t.Fatalf("no isomorphism classes found in replicated %s", e.entry)
			}
			best := 0
			for _, c := range classes {
				if len(c.States) > best {
					best = len(c.States)
				}
				if len(c.States) < 2 {
					t.Errorf("class with %d member(s) reported: %+v", len(c.States), c)
				}
			}
			if best < 2 {
				t.Fatalf("largest class has %d members, want >= 2", best)
			}
		})
	}

	// The FIFO's data cells are one-node shift wires: below the
	// templating threshold by design, so no class may fire.
	mo := buildZoo(t, "fifo", zoo.Size{"width": 4, "depth": 3, "bound": 7})
	classes, err := ir.IsoClasses(mo)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 0 {
		t.Errorf("wire-only FIFO reported %d classes, want none", len(classes))
	}
}

// TestIsoVerdictUnchanged: end to end, an instantiation that went
// through the template pass verifies exactly like the baseline.
func TestIsoVerdictUnchanged(t *testing.T) {
	mo := buildZoo(t, "fifo", zoo.Size{"width": 3, "depth": 2, "bound": 5})

	pIso := mo.MustInstantiate(bdd.New())
	mbase := bdd.New()
	pBase, err := mo.InstantiateNoIso(mbase)
	if err != nil {
		t.Fatal(err)
	}
	for _, meth := range []verify.Method{verify.Forward, verify.XICI, verify.PDR} {
		a := verify.Run(pIso, meth, verify.Options{})
		b := verify.Run(pBase, meth, verify.Options{})
		if a.Outcome != b.Outcome || a.Iterations != b.Iterations {
			t.Errorf("%s: iso (%v, %d iter) vs baseline (%v, %d iter)",
				meth, a.Outcome, a.Iterations, b.Outcome, b.Iterations)
		}
	}
}
