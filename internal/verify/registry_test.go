// Exercises the engine table: a toy engine put into the table for a
// test's duration must run under the shared harness exactly like a
// built-in one.
package verify

import (
	"errors"
	"testing"

	"repro/internal/bdd"
	"repro/internal/fsm"
	"repro/internal/resource"
)

// withEngine puts eng into the engine table under name until t ends.
func withEngine(t *testing.T, name Method, eng engine) {
	t.Helper()
	engines[name] = eng
	t.Cleanup(func() { delete(engines, name) })
}

// toyEngine verifies at once.
func toyEngine(c *runCtx, p Problem, opt Options) Result {
	return Result{Outcome: Verified, Iterations: 1, PeakStateNodes: 1}
}

// abortEngine reports progress, then dies mid-operation the way a BDD
// allocation overrun does — the harness must attach the partial
// statistics to the Exhausted result.
func abortEngine(c *runCtx, p Problem, opt Options) Result {
	c.Observe(7, []int{4, 3})
	if res, stop := c.Tick(3); stop {
		return res
	}
	panic(&resource.LimitError{Limit: 10, Live: 11})
}

// toggle is the smallest sealable machine: one bit, toggling.
func toggle(t *testing.T) Problem {
	t.Helper()
	m := bdd.New()
	ma := fsm.New(m)
	x := ma.NewStateBit("x")
	ma.SetNext(x, m.NVarRef(x))
	ma.SetInit(m.NVarRef(x))
	ma.MustSeal()
	return Problem{Machine: ma, Good: bdd.One, Name: "toggle"}
}

func TestToyEngineRunsThroughPublicAPI(t *testing.T) {
	withEngine(t, "TestToy", toyEngine)
	res := Run(toggle(t), "TestToy", Options{})
	if res.Outcome != Verified {
		t.Fatalf("outcome %v (%s)", res.Outcome, res.Why)
	}
	if res.Method != "TestToy" || res.Problem != "toggle" {
		t.Fatalf("harness did not finalize the result: %+v", res)
	}
	if res.MemBytes <= 0 {
		t.Fatalf("missing harness stats: %+v", res)
	}
}

func TestExhaustedResultKeepsPartialStats(t *testing.T) {
	withEngine(t, "TestAbort", abortEngine)
	res := Run(toggle(t), "TestAbort", Options{})
	if res.Outcome != Exhausted {
		t.Fatalf("outcome %v, want exhausted", res.Outcome)
	}
	if !errors.Is(res.Err, resource.ErrNodeLimit) {
		t.Fatalf("Err = %v, want ErrNodeLimit", res.Err)
	}
	if res.Iterations != 3 {
		t.Fatalf("partial iterations lost: %d", res.Iterations)
	}
	if res.PeakStateNodes != 7 {
		t.Fatalf("partial peak lost: %d", res.PeakStateNodes)
	}
	if len(res.PeakProfile) != 2 || res.PeakProfile[0] != 4 || res.PeakProfile[1] != 3 {
		t.Fatalf("partial profile lost: %v", res.PeakProfile)
	}
}

func TestIterationCapViaBudget(t *testing.T) {
	withEngine(t, "TestAbort", abortEngine)
	res := Run(toggle(t), "TestAbort", Options{Budget: resource.Budget{MaxIterations: 2}})
	if res.Outcome != Exhausted || !errors.Is(res.Err, resource.ErrIterLimit) {
		t.Fatalf("outcome %v, Err %v, want exhausted/ErrIterLimit", res.Outcome, res.Err)
	}
	if res.Cause() != "iteration-cap" {
		t.Fatalf("Cause = %q", res.Cause())
	}
}

func TestBuiltinMethodsAllRegistered(t *testing.T) {
	if len(Methods) != 8 {
		t.Fatalf("Methods = %v, want all eight engines", Methods)
	}
	registered := Registered()
	if len(registered) != len(Methods) {
		t.Fatalf("Registered() = %v, Methods = %v", registered, Methods)
	}
	for _, meth := range Methods {
		if engines[meth] == nil {
			t.Fatalf("%s in Methods but not in the engine table", meth)
		}
	}
}
