package server

import (
	"fmt"
	"strings"

	"repro/internal/bdd"
	"repro/internal/lang"
	"repro/internal/verify"
	"repro/internal/zoo"
)

// Builtin models are the zoo registry: every registered entry — the
// paper families, the parameterized additions, the imported `.fsm`
// machines — is submittable by name. At submission the entry is built
// (manager-free IR) and serialized to its canonical text, so from that
// point on a builtin job IS a textual job: same code path, same
// content-addressed cache identity. A builtin submission and a textual
// submission of the equivalent model therefore share one cache entry.

// legacyDefaults reproduces the first API version's default sizes,
// which were smaller than the zoo entries' own defaults.
var legacyDefaults = map[string]zoo.Size{
	"fifo":      {"depth": 3},
	"network":   {"procs": 2},
	"filter":    {"depth": 4},
	"coherence": {"caches": 2},
	"link":      {"data-bits": 1},
	"pipeline":  {"regs": 2, "width": 1},
}

// Builtins returns the accepted builtin names (the zoo registry),
// sorted.
func Builtins() []string { return zoo.Names() }

// builtinSize resolves the request's parameter surface — the legacy
// flat knobs plus the named "params" map — into the zoo size overrides.
// Named params win over legacy knobs.
func builtinSize(req *SubmitRequest) (zoo.Size, error) {
	size := zoo.Size{}
	for k, v := range legacyDefaults[req.Builtin] {
		size[k] = v
	}
	if req.Size != 0 {
		key, ok := zoo.LegacySizeKey[req.Builtin]
		if !ok {
			return nil, fmt.Errorf("builtin %q takes named parameters; use \"params\" instead of \"size\"", req.Builtin)
		}
		size[key] = req.Size
	}
	if req.Regs != 0 || req.Bits != 0 {
		if req.Builtin != "pipeline" {
			return nil, fmt.Errorf("\"regs\"/\"bits\" only apply to the pipeline builtin; use \"params\" for %q", req.Builtin)
		}
		if req.Regs != 0 {
			size["regs"] = req.Regs
		}
		if req.Bits != 0 {
			size["width"] = req.Bits
		}
	}
	if req.Assist {
		size["assist"] = 1
	}
	if req.Bug {
		size["bug"] = 1
	}
	for k, v := range req.Params {
		size[k] = v
	}
	return size, nil
}

// normalizeModel validates the request's model selection, fills
// defaults in place, and returns the canonical model identity string
// the result cache hashes. Both frontends converge on the same
// identity: textual source is canonicalized with lang.Canon; a builtin
// is built from the zoo registry and serialized to the identical
// canonical form (the golden round-trip tests pin that lang.Canon is a
// fixed point on it). Either way the job leaves here carrying canonical
// text in req.Model.
func normalizeModel(req *SubmitRequest) (string, error) {
	hasModel := strings.TrimSpace(req.Model) != ""
	if hasModel == (req.Builtin != "") {
		return "", fmt.Errorf("exactly one of \"model\" or \"builtin\" must be set (builtins: %s)",
			strings.Join(Builtins(), ", "))
	}
	if hasModel {
		canon, err := lang.Canon(req.Model)
		if err != nil {
			return "", err
		}
		req.Model = canon
		if req.Name == "" {
			req.Name = "model"
		}
		return "ir:" + canon, nil
	}
	e, ok := zoo.Get(req.Builtin)
	if !ok {
		return "", fmt.Errorf("unknown builtin %q (builtins: %s)", req.Builtin, strings.Join(Builtins(), ", "))
	}
	size, err := builtinSize(req)
	if err != nil {
		return "", err
	}
	mo, err := e.Model(size)
	if err != nil {
		return "", err
	}
	req.Model = mo.Format()
	if req.Name == "" {
		req.Name = req.Builtin
	}
	return "ir:" + req.Model, nil
}

// buildProblem constructs the job's problem on the worker's manager.
// Every job — textual or builtin — carries canonical text after
// normalization, so there is exactly one construction path and no
// frontend builds BDDs outside ir.Instantiate.
func buildProblem(m *bdd.Manager, req *SubmitRequest) (verify.Problem, error) {
	if req.Model == "" {
		return verify.Problem{}, fmt.Errorf("job was not normalized: empty model")
	}
	return lang.Parse(m, req.Model, req.Name)
}
