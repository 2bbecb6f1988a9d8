// Garbage-collection tests. In package verify_test because they build
// problems with internal/zoo and internal/models, which import verify.
package verify_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bdd"
	"repro/internal/models"
	"repro/internal/resource"
	"repro/internal/verify"
	"repro/internal/zoo"
)

// TestGCDuringTraversal: no engine's answer may depend on garbage
// collection. Every zoo entry at its smoke size, with and without its
// seeded bug, runs under all eight engines with GCEvery 1 and 2; each
// run must match the GC-free run of the same problem in outcome,
// iterations, violation depth, peak nodes, profile and size trajectory,
// and every counterexample trace must replay. A value an engine uses after a
// collection without registering it shows up here as a changed answer.
func TestGCDuringTraversal(t *testing.T) {
	runs := 0
	for _, name := range zoo.Names() {
		e, _ := zoo.Get(name)
		bugs := []int{0}
		if _, ok := e.Defaults["bug"]; ok {
			bugs = append(bugs, 1)
		}
		for _, bug := range bugs {
			size := zoo.Size{}
			for k, v := range e.Sizes[0] {
				size[k] = v
			}
			if bug == 1 {
				size["bug"] = 1
			}
			mo, err := e.Model(size)
			if err != nil {
				t.Fatal(err)
			}
			for _, meth := range verify.Methods {
				run := func(gcEvery int) (verify.Result, verify.Problem) {
					p := mo.MustInstantiate(bdd.New())
					return verify.Run(p, meth, verify.Options{
						WantTrace: true,
						GCEvery:   gcEvery,
						Budget:    resource.Budget{MaxIterations: 100},
					}), p
				}
				base, _ := run(0)
				for _, gcEvery := range []int{1, 2} {
					row := fmt.Sprintf("%s %v %s gc_every=%d", name, size, meth, gcEvery)
					got, p := run(gcEvery)
					runs++
					if got.Outcome != base.Outcome || got.Iterations != base.Iterations ||
						got.ViolationDepth != base.ViolationDepth || got.Cause() != base.Cause() {
						t.Errorf("%s: %v iter=%d depth=%d %s, without GC %v iter=%d depth=%d %s", row,
							got.Outcome, got.Iterations, got.ViolationDepth, got.Cause(),
							base.Outcome, base.Iterations, base.ViolationDepth, base.Cause())
						continue
					}
					if got.PeakStateNodes != base.PeakStateNodes ||
						!reflect.DeepEqual(got.PeakProfile, base.PeakProfile) ||
						!reflect.DeepEqual(got.SizeTrajectory, base.SizeTrajectory) {
						t.Errorf("%s: peak %d %v trajectory %v, without GC peak %d %v trajectory %v", row,
							got.PeakStateNodes, got.PeakProfile, got.SizeTrajectory,
							base.PeakStateNodes, base.PeakProfile, base.SizeTrajectory)
					}
					if (got.Trace == nil) != (base.Trace == nil) {
						t.Errorf("%s: trace %v, without GC %v", row, got.Trace != nil, base.Trace != nil)
					} else if got.Trace != nil {
						goods := p.GoodList
						if len(goods) == 0 {
							goods = []bdd.Ref{p.Good}
						}
						if err := got.Trace.Validate(p.Machine, goods); err != nil {
							t.Errorf("%s: %v", row, err)
						}
					}
				}
			}
		}
	}
	if runs < 300 {
		t.Fatalf("only %d GC runs; the zoo shrank?", runs)
	}
}

// TestGCProtectIdempotentAcrossRuns is the regression test for re-running
// one problem with GCEvery > 0 on one manager. Each run's collections
// keep the problem's roots, which the caller still holds between runs,
// so the k-th run must answer exactly as the first and leave a sound
// node pool behind.
func TestGCProtectIdempotentAcrossRuns(t *testing.T) {
	m := bdd.New()
	p := models.BuildFIFO(models.DefaultFIFO(2)).MustInstantiate(m)
	opt := verify.Options{GCEvery: 1}

	first := verify.Run(p, verify.XICI, opt)
	if first.Outcome != verify.Verified {
		t.Fatalf("outcome %v: %s", first.Outcome, first.Why)
	}
	for run := 2; run <= 4; run++ {
		res := verify.Run(p, verify.XICI, opt)
		if res.Outcome != first.Outcome || res.Iterations != first.Iterations {
			t.Fatalf("run %d diverged: %+v vs %+v", run, res, first)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
