package difftest

import "repro/internal/verify"

// Self-test of the harness: a deliberately broken engine that the
// differential driver must catch. It is the forward engine lying about
// any violation found deeper than the surface — the shape of a real
// termination bug (declaring convergence one iteration early).

// BuggyMethod names the injected engine in EngineSpecs and reports.
// RunInstance runs it as verify.Forward and applies the lie.
const BuggyMethod verify.Method = "BuggyFwd"

// InjectBuggyEngine returns an EngineSpec list of the default engines
// plus the buggy one. A fuzz run over this list must report divergences
// on every instance whose property fails at depth >= 1 — if it does
// not, the harness itself is broken.
func InjectBuggyEngine() []EngineSpec {
	return append(DefaultEngines(), EngineSpec{Name: string(BuggyMethod), Method: BuggyMethod})
}

// runMethod is verify.Run, except that it also runs BuggyMethod.
func runMethod(p verify.Problem, method verify.Method, opt verify.Options) verify.Result {
	if method != BuggyMethod {
		return verify.Run(p, method, opt)
	}
	res := verify.Run(p, verify.Forward, opt)
	if res.Outcome == verify.Violated && res.ViolationDepth >= 1 {
		// The lie: deep violations are reported as proofs.
		res = verify.Result{Outcome: verify.Verified, Iterations: res.Iterations}
	}
	return res
}
