package difftest

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/resource"
	"repro/internal/verify"
)

// Config bounds one differential run.
type Config struct {
	// Engines to run; nil means DefaultEngines().
	Engines []EngineSpec

	// MaxIterations / NodeLimit bound each engine run (0: 64
	// iterations — generous for instances this small, and what keeps a
	// diverging monolithic traversal from dominating the campaign's
	// wall time; unlimited nodes). A budget abort is never counted as a
	// divergence — only verdicts disagree.
	MaxIterations int
	NodeLimit     int

	// OracleStateBits / OracleInputBits are the explicit-search caps
	// (see Oracle).
	OracleStateBits int
	OracleInputBits int
}

// EngineSpec names one engine configuration under test: a registered
// method plus the Options ablation knobs it runs with. The name is the
// stable identity used in reports.
type EngineSpec struct {
	Name   string
	Method verify.Method
	Tune   func(*verify.Options)
	// TolerateExhausted marks configurations that may legitimately fail
	// to decide an instance the others decide: the original ICI fast
	// positional termination test (not proven to terminate), Induction
	// ("not inductive" is not a verdict), and the TermFast ablation.
	TolerateExhausted bool
}

// DefaultEngines returns every built-in engine (including PDR and its
// frame-policy ablation) plus the XICI ablation grid: each Section V
// knob (simplifier, SkipStep3, VarChoice, PairBudgetFactor, termination
// mode, GC cadence) exercised against the default
// configuration.
func DefaultEngines() []EngineSpec {
	specs := []EngineSpec{
		{Name: "Fwd", Method: verify.Forward},
		{Name: "Bkwd", Method: verify.Backward},
		{Name: "FD", Method: verify.FD},
		{Name: "ICI", Method: verify.ICI, TolerateExhausted: true},
		{Name: "XICI", Method: verify.XICI},
		{Name: "FwdID", Method: verify.ForwardID},
		{Name: "Induction", Method: verify.Induction, TolerateExhausted: true},
		{Name: "PDR", Method: verify.PDR, Tune: pdrCap},
		{Name: "PDR/nopolicy", Method: verify.PDR,
			Tune: func(o *verify.Options) {
				pdrCap(o)
				o.Core.SkipSimplify = true
				o.Core.SkipEvaluate = true
			}},

		{Name: "XICI/constrain", Method: verify.XICI,
			Tune: func(o *verify.Options) { o.Core.Simplifier = bdd.UseConstrain }},
		{Name: "XICI/skipstep3", Method: verify.XICI,
			Tune: func(o *verify.Options) { o.TermSkipStep3 = true }},
		{Name: "XICI/mostcommontop", Method: verify.XICI,
			Tune: func(o *verify.Options) { o.TermVarChoice = core.VarMostCommonTop }},
		{Name: "XICI/pairbudget", Method: verify.XICI,
			Tune: func(o *verify.Options) { o.Core.PairBudgetFactor = 4 }},
		{Name: "XICI/implication", Method: verify.XICI,
			Tune: func(o *verify.Options) { o.Termination = verify.TermImplication }},
		{Name: "XICI/fastterm", Method: verify.XICI, TolerateExhausted: true,
			Tune: func(o *verify.Options) { o.Termination = verify.TermFast }},
		{Name: "XICI/gc2", Method: verify.XICI,
			Tune: func(o *verify.Options) { o.GCEvery = 2 }},
		{Name: "XICI/threshold1", Method: verify.XICI,
			Tune: func(o *verify.Options) { o.Core.GrowThreshold = 1.0 }},
	}
	return specs
}

// pdrCap bounds the PDR specs' node budget when the caller left the
// budget unlimited. PDR's cube-wise blocking can fail to converge on
// datapath-heavy instances (the documented filter/pipeline weakness —
// see EXPERIMENTS.md); an unbounded non-converging run then churns for
// the full 64-level iteration cap, minutes of wall-clock per instance.
// Node-limit exhaustion is deterministic and tolerated by the
// divergence rules, so capping trades nothing but wasted churn. A
// caller-supplied Config.NodeLimit wins.
func pdrCap(o *verify.Options) {
	if o.Budget.NodeLimit == 0 {
		o.Budget.NodeLimit = 250_000
	}
}

// FilterEngines keeps the specs matching any of the names. A name
// matches a spec when it equals (case-insensitively) the spec's full
// name or its base before the first "/" — so "pdr" selects both "PDR"
// and "PDR/nopolicy". An unknown name is an error, not a silent no-op:
// a typo in a CI engine list must fail the job, not shrink it.
func FilterEngines(specs []EngineSpec, names []string) ([]EngineSpec, error) {
	matched := make([]bool, len(names))
	var out []EngineSpec
	for _, spec := range specs {
		base := spec.Name
		if i := strings.IndexByte(base, '/'); i >= 0 {
			base = base[:i]
		}
		keep := false
		for j, name := range names {
			if strings.EqualFold(name, spec.Name) || strings.EqualFold(name, base) {
				matched[j] = true
				keep = true
			}
		}
		if keep {
			out = append(out, spec)
		}
	}
	for j, ok := range matched {
		if !ok {
			return nil, fmt.Errorf("difftest: no engine matches %q", names[j])
		}
	}
	return out, nil
}

// EngineVerdict is one engine's answer on one instance, reduced to the
// deterministic fields a report may carry (no timing, no memory).
type EngineVerdict struct {
	Engine   string `json:"engine"`
	Outcome  string `json:"outcome"`
	Depth    int    `json:"depth,omitempty"`
	Cause    string `json:"cause,omitempty"`
	TraceLen int    `json:"trace_len,omitempty"`
	TraceErr string `json:"trace_err,omitempty"`
}

// Report is the differential result for one instance. Divergences is
// empty on agreement; each entry is one human-readable inconsistency.
type Report struct {
	Params      Params          `json:"params"`
	Oracle      *OracleVerdict  `json:"oracle,omitempty"`
	Verdicts    []EngineVerdict `json:"verdicts"`
	Divergences []string        `json:"divergences,omitempty"`
}

// Divergent reports whether the instance exposed any inconsistency.
func (r Report) Divergent() bool { return len(r.Divergences) > 0 }

// NDJSON renders the report as one deterministic JSON line (trailing
// newline included). Equal inputs produce byte-identical lines: field
// order is fixed by the struct definitions and no timing-dependent value
// is included.
func (r Report) NDJSON() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		// Reports are plain data; marshal cannot fail.
		panic("difftest: " + err.Error())
	}
	return append(b, '\n')
}

// RunInstance runs every configured engine on inst, runs the oracle, and
// cross-checks all verdicts:
//
//   - No two engines may decide differently (Verified vs Violated).
//   - Every Violated verdict must agree on the shortest depth and carry
//     a trace of exactly that length that replays cleanly through
//     Trace.Validate.
//   - The oracle's verdict, when decided, is authoritative.
//   - Exhausted is tolerated when caused by the resource budget, and for
//     engines marked TolerateExhausted; any other exhaustion diverges.
func RunInstance(inst Instance, cfg Config) Report {
	specs := cfg.Engines
	if specs == nil {
		specs = DefaultEngines()
	}
	maxIter := cfg.MaxIterations
	if maxIter == 0 {
		maxIter = 64
	}

	// Every spec runs on the instance's one manager, so an engine that
	// aborts at its node limit would otherwise leave its abandoned
	// intermediates counted against the next engine's budget — the next
	// capped spec would exhaust instantly on inherited garbage. Pin the
	// problem's structure as permanent roots (idempotent) and collect
	// between runs.
	m := inst.Problem.Machine.M
	inst.Problem.Machine.Protect()
	m.ProtectPermanent(inst.Problem.Good)
	for _, g := range inst.Problem.GoodList {
		m.ProtectPermanent(g)
	}
	for _, d := range inst.Problem.Deps {
		m.ProtectPermanent(d.Def)
	}

	rep := Report{Params: inst.Params}
	ov := Oracle(inst, cfg.OracleStateBits, cfg.OracleInputBits)
	if ov.Decided {
		rep.Oracle = &ov
	}

	type decided struct {
		name     string
		violated bool
		depth    int
	}
	var ref *decided
	if ov.Decided {
		ref = &decided{name: "oracle", violated: ov.Violated, depth: ov.Depth}
	}

	for _, spec := range specs {
		m.GC()
		opt := verify.Options{
			WantTrace: true,
			Budget: resource.Budget{
				MaxIterations: maxIter,
				NodeLimit:     cfg.NodeLimit,
			},
		}
		if spec.Tune != nil {
			spec.Tune(&opt)
		}
		res := verify.Run(inst.Problem, spec.Method, opt)

		v := EngineVerdict{Engine: spec.Name, Outcome: res.Outcome.String(), Cause: res.Cause()}
		if res.Outcome == verify.Violated {
			v.Depth = res.ViolationDepth
			if res.Trace == nil {
				v.TraceErr = "no trace produced"
			} else {
				v.TraceLen = res.Trace.Len()
				if err := res.Trace.Validate(inst.Machine, inst.goodList()); err != nil {
					v.TraceErr = err.Error()
				} else if res.Trace.Len() != res.ViolationDepth {
					v.TraceErr = fmt.Sprintf("trace length %d != violation depth %d", res.Trace.Len(), res.ViolationDepth)
				}
			}
			if v.TraceErr != "" {
				rep.Divergences = append(rep.Divergences,
					fmt.Sprintf("%s: violated but trace unusable: %s", spec.Name, v.TraceErr))
			}
		}
		rep.Verdicts = append(rep.Verdicts, v)

		switch res.Outcome {
		case verify.Exhausted:
			switch res.Cause() {
			case "node-limit", "deadline", "canceled", "iteration-cap":
				// Budget abort: not a verdict, not a divergence.
			default:
				if !spec.TolerateExhausted {
					rep.Divergences = append(rep.Divergences,
						fmt.Sprintf("%s: exhausted without a budget cause: %s", spec.Name, res.Why))
				}
			}
		case verify.Verified, verify.Violated:
			d := decided{name: spec.Name, violated: res.Outcome == verify.Violated, depth: res.ViolationDepth}
			if ref == nil {
				ref = &d
				continue
			}
			if d.violated != ref.violated {
				rep.Divergences = append(rep.Divergences,
					fmt.Sprintf("%s says %s, %s says %s", d.name, outcomeWord(d.violated), ref.name, outcomeWord(ref.violated)))
			} else if d.violated && d.depth != ref.depth {
				rep.Divergences = append(rep.Divergences,
					fmt.Sprintf("%s finds depth %d, %s finds depth %d", d.name, d.depth, ref.name, ref.depth))
			}
		}
	}
	sort.Strings(rep.Divergences)
	return rep
}

func outcomeWord(violated bool) string {
	if violated {
		return "violated"
	}
	return "verified"
}
