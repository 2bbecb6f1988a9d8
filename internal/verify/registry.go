package verify

import (
	"sort"
	"strings"
)

// engine is one verification algorithm's core loop. It runs under the
// harness context c — budget checkpoints, GC root bookkeeping, the
// event stream, and the partial-statistics sink consulted when the run
// aborts on a resource overrun — while the harness owns budget
// installation, Guard recovery, and Result finalization.
type engine func(c *runCtx, p Problem, opt Options) Result

// engines is the static method table RunContext dispatches through.
// Adding an engine means one entry here and one in Methods.
var engines = map[Method]engine{
	Forward:   runForward,
	Backward:  runBackward,
	FD:        runFD,
	ICI:       runICI,
	XICI:      runXICI,
	ForwardID: runForwardID,
	Induction: runInduction,
	PDR:       runPDR,
}

// Resolve looks a method name up case-insensitively: flag plumbing
// ("-engines pdr") and the HTTP API accept any casing of a known
// name. An exact match wins; otherwise the unique case-insensitive
// match is returned, and ok is false when none (or several) exist.
func Resolve(name string) (Method, bool) {
	if _, ok := engines[Method(name)]; ok {
		return Method(name), true
	}
	var found Method
	n := 0
	for meth := range engines {
		if strings.EqualFold(string(meth), name) {
			found = meth
			n++
		}
	}
	return found, n == 1
}

// Registered returns every method name, sorted — the order icid's
// /healthz, its error texts, and `-engines list` print. Methods holds
// the same names in the paper's table order.
func Registered() []Method {
	out := make([]Method, 0, len(engines))
	for name := range engines {
		out = append(out, name)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
