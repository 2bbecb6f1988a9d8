// Observability-layer tests: Result stats plumbing, the Observer event
// stream, per-phase timers, and the idempotent GC-root protection. In
// package verify_test for the same reason as parallel_test.go.
package verify_test

import (
	"testing"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/resource"
	"repro/internal/verify"
)

// recorder is a test Observer that counts events.
type recorder struct {
	iterations []verify.IterationEvent
	merges     []verify.MergeEvent
	terms      []verify.TermEvent
}

func (r *recorder) OnIteration(e verify.IterationEvent) { r.iterations = append(r.iterations, e) }
func (r *recorder) OnMerge(e verify.MergeEvent)         { r.merges = append(r.merges, e) }
func (r *recorder) OnTermResolved(e verify.TermEvent)   { r.terms = append(r.terms, e) }

// TestResultCarriesEffortStats: an XICI run under the default exact
// termination test must surface non-zero TermStats and EvalStats on the
// Result, a size trajectory whose maximum is the reported peak, and the
// bucket invariant on the termination counters.
func TestResultCarriesEffortStats(t *testing.T) {
	p := models.BuildFIFO(models.DefaultFIFO(3)).MustInstantiate(bdd.New())
	res := verify.Run(p, verify.XICI, verify.Options{})
	if res.Outcome != verify.Verified {
		t.Fatalf("outcome %v: %s", res.Outcome, res.Why)
	}
	if res.Term.TautCalls == 0 {
		t.Error("no tautology calls reported — TermStats not plumbed")
	}
	if res.Term.Resolved()+res.Term.ShannonSplits != res.Term.TautCalls {
		t.Errorf("bucket invariant broken: %+v", res.Term)
	}
	if res.Eval.PairsScored == 0 || res.Eval.Rounds == 0 {
		t.Errorf("no evaluation effort reported: %+v", res.Eval)
	}
	if len(res.SizeTrajectory) != res.Iterations+1 {
		t.Errorf("trajectory has %d entries for %d iterations", len(res.SizeTrajectory), res.Iterations)
	}
	max := 0
	for _, s := range res.SizeTrajectory {
		if s > max {
			max = s
		}
	}
	if max != res.PeakStateNodes {
		t.Errorf("trajectory max %d != peak %d", max, res.PeakStateNodes)
	}
	if res.PhaseDurations.Total() > res.Elapsed {
		t.Errorf("attributed phase time %v exceeds elapsed %v", res.PhaseDurations.Total(), res.Elapsed)
	}
}

// TestObserverEventStream: the Observer sees one OnIteration per
// trajectory entry, OnMerge exactly MergesApplied times, and at least
// one OnTermResolved whose final event reports convergence with the
// run's cumulative counters.
func TestObserverEventStream(t *testing.T) {
	p := models.BuildFIFO(models.DefaultFIFO(3)).MustInstantiate(bdd.New())
	rec := &recorder{}
	res := verify.Run(p, verify.XICI, verify.Options{Observer: rec})
	if res.Outcome != verify.Verified {
		t.Fatalf("outcome %v: %s", res.Outcome, res.Why)
	}
	if len(rec.iterations) != len(res.SizeTrajectory) {
		t.Errorf("%d OnIteration events for %d trajectory entries",
			len(rec.iterations), len(res.SizeTrajectory))
	}
	for i, e := range rec.iterations {
		if e.Index != i || e.SharedNodes != res.SizeTrajectory[i] {
			t.Errorf("iteration event %d = %+v, want index %d size %d",
				i, e, i, res.SizeTrajectory[i])
		}
	}
	if len(rec.merges) != res.Eval.MergesApplied {
		t.Errorf("%d OnMerge events for %d merges", len(rec.merges), res.Eval.MergesApplied)
	}
	if len(rec.terms) == 0 {
		t.Fatal("no OnTermResolved events")
	}
	last := rec.terms[len(rec.terms)-1]
	if !last.Converged {
		t.Error("final termination event did not report convergence")
	}
	if last.Stats != res.Term {
		t.Errorf("final term snapshot %+v != result %+v", last.Stats, res.Term)
	}
}

// TestObserverAllEngines: every registered engine must emit iteration
// and termination events on a problem it can decide.
func TestObserverAllEngines(t *testing.T) {
	for _, meth := range verify.Methods {
		p := models.BuildFIFO(models.DefaultFIFO(2)).MustInstantiate(bdd.New())
		rec := &recorder{}
		res := verify.Run(p, meth, verify.Options{Observer: rec})
		if res.Outcome == verify.Exhausted && meth != verify.Induction {
			t.Errorf("%s: unexpected exhaustion: %s", meth, res.Why)
			continue
		}
		if len(rec.iterations) == 0 {
			t.Errorf("%s: no OnIteration events", meth)
		}
		if len(rec.terms) == 0 {
			t.Errorf("%s: no OnTermResolved events", meth)
		}
		if len(rec.iterations) != len(res.SizeTrajectory) {
			t.Errorf("%s: %d iteration events vs %d trajectory entries",
				meth, len(rec.iterations), len(res.SizeTrajectory))
		}
	}
}

// TestExhaustedKeepsPartialStats: a run aborted by the iteration cap
// still reports the effort spent before the abort.
func TestExhaustedKeepsPartialStats(t *testing.T) {
	p := models.BuildPipeline(models.PipelineConfig{Regs: 2, Width: 1, Assist: true}).MustInstantiate(bdd.New())
	res := verify.Run(p, verify.XICI, verify.Options{
		Budget: resource.Budget{MaxIterations: 2},
	})
	if res.Outcome != verify.Exhausted {
		t.Fatalf("outcome %v, want exhausted", res.Outcome)
	}
	if res.Term.TautCalls == 0 || res.Eval.PairsScored == 0 {
		t.Errorf("partial stats lost on abort: term %+v eval %+v", res.Term, res.Eval)
	}
	if len(res.SizeTrajectory) == 0 {
		t.Error("partial trajectory lost on abort")
	}
}

// TestStatsPerRunAcrossRuns is the regression test for the stats-reuse
// bug: a caller keeping one Options value (with a shared EvalStats sink)
// across runs used to see the counters silently accumulate run over run,
// breaking the TermStats bucket invariant for any single run and turning
// MaxSplitDepth into a cross-run max. Each run must now report its own
// counters alone — both on the Result and in the caller's sink.
func TestStatsPerRunAcrossRuns(t *testing.T) {
	m := bdd.New()
	p := models.BuildFIFO(models.DefaultFIFO(3)).MustInstantiate(m)
	var sink core.EvalStats
	opt := verify.Options{Core: core.Options{Stats: &sink}}

	first := verify.Run(p, verify.XICI, opt)
	if first.Outcome != verify.Verified {
		t.Fatalf("outcome %v: %s", first.Outcome, first.Why)
	}
	if sink != first.Eval {
		t.Errorf("caller sink %+v != first run's Eval %+v", sink, first.Eval)
	}

	second := verify.Run(p, verify.XICI, opt)
	if second.Outcome != verify.Verified {
		t.Fatalf("second outcome %v: %s", second.Outcome, second.Why)
	}
	if second.Eval != first.Eval {
		t.Errorf("Eval accumulated across runs: first %+v, second %+v", first.Eval, second.Eval)
	}
	if second.Term != first.Term {
		t.Errorf("Term accumulated across runs: first %+v, second %+v", first.Term, second.Term)
	}
	if sink != second.Eval {
		t.Errorf("caller sink %+v != second run's Eval %+v (accumulated?)", sink, second.Eval)
	}
	for run, term := range map[string]core.TermStats{"first": first.Term, "second": second.Term} {
		if term.Resolved()+term.ShannonSplits != term.TautCalls {
			t.Errorf("%s run breaks the bucket invariant: %+v", run, term)
		}
	}
}

// TestTermSkipStep3Exact: the ablation knob must not change verdicts —
// the test stays exact with step 3 disabled, and no call may resolve in
// the step-3 bucket.
func TestTermSkipStep3Exact(t *testing.T) {
	base := verify.Run(models.BuildFIFO(models.DefaultFIFO(3)).MustInstantiate(bdd.New()), verify.XICI, verify.Options{})
	skip := verify.Run(models.BuildFIFO(models.DefaultFIFO(3)).MustInstantiate(bdd.New()), verify.XICI, verify.Options{TermSkipStep3: true})
	if base.Outcome != verify.Verified || skip.Outcome != verify.Verified {
		t.Fatalf("outcomes %v / %v, want verified", base.Outcome, skip.Outcome)
	}
	if skip.Iterations != base.Iterations {
		t.Errorf("SkipStep3 changed the verdict path: %d vs %d iterations", skip.Iterations, base.Iterations)
	}
	if skip.Term.StepResolved[1] != 0 {
		t.Errorf("step-3 bucket nonzero with SkipStep3: %+v", skip.Term)
	}
}

// TestGCProtectIdempotentAcrossRuns is the regression test for the
// unbounded-refcount bug: re-running the same problem with GCEvery > 0
// on one manager used to re-Protect the machine and property Refs each
// time, inflating their counts without bound. Permanent protection is
// now idempotent per manager, so a second (and k-th) run must leave the
// refcounts exactly where the first run left them.
func TestGCProtectIdempotentAcrossRuns(t *testing.T) {
	m := bdd.New()
	p := models.BuildFIFO(models.DefaultFIFO(2)).MustInstantiate(m)
	opt := verify.Options{GCEvery: 1}

	refs := func() map[bdd.Ref]int {
		out := make(map[bdd.Ref]int)
		out[p.Good] = m.ExternalRefs(p.Good)
		for _, g := range p.GoodList {
			out[g] = m.ExternalRefs(g)
		}
		out[p.Machine.Init()] = m.ExternalRefs(p.Machine.Init())
		return out
	}

	first := verify.Run(p, verify.XICI, opt)
	if first.Outcome != verify.Verified {
		t.Fatalf("outcome %v: %s", first.Outcome, first.Why)
	}
	after1 := refs()

	for run := 2; run <= 4; run++ {
		res := verify.Run(p, verify.XICI, opt)
		if res.Outcome != first.Outcome || res.Iterations != first.Iterations {
			t.Fatalf("run %d diverged: %+v vs %+v", run, res, first)
		}
		for r, n := range refs() {
			if n != after1[r] {
				t.Fatalf("run %d: refcount of %v grew from %d to %d", run, r, after1[r], n)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
