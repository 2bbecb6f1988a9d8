// Command iciverify runs one verification engine on one benchmark model
// and prints the paper-style statistics row, optionally with a
// counterexample trace.
//
// Usage:
//
//	iciverify -model fifo -size 5 -method XICI
//	iciverify -model filter -size 8 -assist -method ICI
//	iciverify -model pipeline -regs 2 -bits 3 -method Bkwd -nodelimit 2000000
//	iciverify -model network -size 4 -method FD
//	iciverify -model fifo -size 3 -bug -method Fwd -trace
//	iciverify -model fifo -size 4 -engines Fwd,Bkwd,XICI
//	iciverify -model elevator -params floors=5
//	iciverify -model fsm/turnstile -method Fwd -trace
//	iciverify -fsm machine.fsm -method XICI
//	iciverify -engines list
//
// Built-in models resolve through the zoo registry (every entry `icid`
// serves and `icibench -zoo` grids): the paper families take the flat
// flags (fifo size = depth, network size = processors, filter size =
// window depth, pipeline -regs/-bits), and every entry takes named
// -params name=value pairs, which win over the flat flags. -fsm imports
// an FSM-toolkit .fsm machine from disk (see internal/fsmtk); -file
// verifies a textual model (see internal/lang).
// Ctrl-C cancels a running traversal cleanly (reported as exhausted).
//
// Exit codes (multi-engine runs report the worst outcome, where
// violation outranks exhaustion):
//
//	0  every engine verified the property
//	1  an engine found a property violation (or its trace failed replay)
//	2  usage or configuration error (bad flag, unknown model/engine, ...)
//	3  a run exhausted its budget — the typed cause (node-limit,
//	   deadline, canceled, iteration-cap) is printed with the row
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/fsmtk"
	"repro/internal/lang"
	"repro/internal/resource"
	"repro/internal/verify"
	"repro/internal/zoo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the selected engines and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iciverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		model     = fs.String("model", "fifo", "zoo model name (fifo, network, filter, pipeline, coherence, link, elevator, traffic, protostack, fsm/..., ...)")
		params    = fs.String("params", "", "comma-separated name=value zoo parameters (e.g. floors=5,bug=1); these win over the flat size flags")
		size      = fs.Int("size", 5, "model size (fifo depth, network processors, filter depth, coherence caches, link data bits)")
		regs      = fs.Int("regs", 2, "pipeline: number of registers")
		bits      = fs.Int("bits", 1, "pipeline: datapath width")
		method    = fs.String("method", "XICI", "method: Fwd, FwdID, Bkwd, FD, ICI, XICI, Induction, PDR")
		engines   = fs.String("engines", "", "comma-separated engines to run in sequence (overrides -method); \"list\" prints the registered engines and exits")
		assist    = fs.Bool("assist", false, "supply user assisting invariants / partition")
		bug       = fs.Bool("bug", false, "seed the model's bug")
		trace     = fs.Bool("trace", false, "print a counterexample trace on violation")
		nodeLimit = fs.Int("nodelimit", 0, "abort when live BDD nodes exceed this (0 = unlimited)")
		timeout   = fs.Duration("timeout", 0, "abort after this wall time (0 = unlimited)")
		maxIter   = fs.Int("maxiter", 0, "abort after this many traversal iterations (0 = engine default)")
		threshold = fs.Float64("threshold", core.DefaultGrowThreshold, "XICI GrowThreshold")
		compose   = fs.Bool("compose", false, "use functional-composition back images instead of the relational product")
		termMode  = fs.String("term", "exact", "XICI termination test: exact, implication, fast")
		dotOut    = fs.String("dot", "", "write the property BDD(s) as Graphviz DOT to this file")
		file      = fs.String("file", "", "verify a textual model file instead of a built-in model (see internal/lang)")
		fsmFile   = fs.String("fsm", "", "import and verify an FSM-toolkit .fsm machine file (see internal/fsmtk)")
		stats     = fs.Bool("stats", false, "print per-phase timings and effort counters after each run")
		events    = fs.String("events", "", "append an NDJSON event log (iteration/merge/termination events) to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *engines == "list" {
		for _, name := range verify.Registered() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}

	// Ctrl-C cancels the run cleanly: BDD operations abort on the next
	// budget check and the engine reports Exhausted/canceled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var instantiate func(*bdd.Manager) (verify.Problem, error)
	switch {
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintf(stderr, "iciverify: %v\n", err)
			return 2
		}
		instantiate = func(m *bdd.Manager) (verify.Problem, error) {
			return lang.Parse(m, string(src), *file)
		}
	case *fsmFile != "":
		src, err := os.ReadFile(*fsmFile)
		if err != nil {
			fmt.Fprintf(stderr, "iciverify: %v\n", err)
			return 2
		}
		mo, err := fsmtk.Import(src)
		if err != nil {
			fmt.Fprintf(stderr, "iciverify: %s: %v\n", *fsmFile, err)
			return 2
		}
		instantiate = mo.Instantiate
	default:
		sz, err := modelSize(*model, *size, *regs, *bits, *assist, *bug, *params)
		if err != nil {
			fmt.Fprintf(stderr, "iciverify: %v\n", err)
			return 2
		}
		mo, err := zoo.Build(*model, sz)
		if err != nil {
			fmt.Fprintf(stderr, "iciverify: %v\n", err)
			return 2
		}
		instantiate = mo.Instantiate
	}
	// Every engine runs on its own manager and problem, as icid and
	// icibench cells do, so no row's peak live nodes, mem= or wall time
	// includes an earlier engine's nodes or its warm cache.
	newProblem := func() (*bdd.Manager, verify.Problem, error) {
		m := bdd.NewWithSize(1<<16, 20)
		p, err := instantiate(m)
		if err == nil && *compose {
			p.Machine.PreImageMode = fsm.PreCompose
		}
		return m, p, err
	}
	m, p, err := newProblem()
	if err != nil {
		fmt.Fprintf(stderr, "iciverify: %v\n", err)
		return 2
	}

	var tm verify.TerminationMode
	switch *termMode {
	case "exact":
		tm = verify.TermExact
	case "implication":
		tm = verify.TermImplication
	case "fast":
		tm = verify.TermFast
	default:
		fmt.Fprintf(stderr, "iciverify: unknown termination mode %q\n", *termMode)
		return 2
	}

	opt := verify.Options{
		Budget: resource.Budget{
			NodeLimit:     *nodeLimit,
			Timeout:       *timeout,
			MaxIterations: *maxIter,
		},
		WantTrace:   *trace,
		Termination: tm,
		Core:        core.Options{GrowThreshold: *threshold},
	}

	var elog *verify.NDJSONObserver
	if *events != "" {
		f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "iciverify: %v\n", err)
			return 2
		}
		defer f.Close()
		elog = verify.NewNDJSONObserver(f)
		opt.Observer = elog
	}

	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			fmt.Fprintf(stderr, "iciverify: %v\n", err)
			return 2
		}
		goods := p.GoodList
		if goods == nil {
			goods = []bdd.Ref{p.Good}
		}
		if err := m.WriteDOT(f, goods...); err != nil {
			fmt.Fprintf(stderr, "iciverify: %v\n", err)
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "iciverify: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote property BDDs to %s\n", *dotOut)
	}

	// The run list: -engines selects several, -method one; both resolve
	// through the engine registry, case-insensitively ("pdr" works).
	var names []string
	if *engines != "" {
		names = strings.Split(*engines, ",")
	} else {
		names = []string{*method}
	}
	var methods []verify.Method
	for _, name := range names {
		meth, ok := verify.Resolve(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(stderr, "iciverify: unknown method %q (try -engines list)\n", strings.TrimSpace(name))
			return 2
		}
		methods = append(methods, meth)
	}

	fmt.Fprintf(stdout, "model %s  (%d state bits, %d input bits)\n",
		p.Name, p.Machine.StateBits(), p.Machine.InputBits())

	exit := 0
	for i, meth := range methods {
		if i > 0 {
			if m, p, err = newProblem(); err != nil {
				fmt.Fprintf(stderr, "iciverify: %v\n", err)
				return 2
			}
		}
		if elog != nil {
			elog.SetMethod(string(meth))
		}
		start := time.Now()
		res := verify.RunContext(ctx, p, meth, opt)
		fmt.Fprintln(stdout, res)
		if cause := res.Cause(); cause != "" {
			fmt.Fprintf(stdout, "cause: %s\n", cause)
		}
		fmt.Fprintf(stdout, "wall %v, peak live nodes %d\n", time.Since(start).Round(time.Millisecond), m.PeakNodes())
		if *stats {
			printStats(stdout, res)
		}

		if res.Trace != nil {
			goods := p.GoodList
			if goods == nil {
				goods = []bdd.Ref{p.Good}
			}
			if err := res.Trace.Validate(p.Machine, goods); err != nil {
				fmt.Fprintf(stderr, "trace validation FAILED: %v\n", err)
				return 1
			}
			fmt.Fprintln(stdout, "counterexample (validated by replay):")
			rendered, err := res.Trace.Format(m, p.Machine.CurVars())
			if err != nil {
				fmt.Fprintf(stderr, "trace formatting FAILED: %v\n", err)
				return 1
			}
			fmt.Fprint(stdout, rendered)
		}
		switch res.Outcome {
		case verify.Violated:
			exit = 1
		case verify.Exhausted:
			if exit == 0 {
				exit = 3
			}
		}
	}
	return exit
}

// legacySizeKey maps the flat -size flag onto the zoo parameter it has
// always meant, for the original six families.
var legacySizeKey = map[string]string{
	"fifo":      "depth",
	"network":   "procs",
	"filter":    "depth",
	"coherence": "caches",
	"link":      "data-bits",
}

// modelSize resolves the flat flags and the -params list into the zoo
// size overrides for the named entry.
func modelSize(model string, size, regs, bits int, assist, bug bool, params string) (zoo.Size, error) {
	sz := zoo.Size{}
	if key, ok := legacySizeKey[model]; ok {
		sz[key] = size
	}
	if model == "pipeline" {
		sz["regs"], sz["width"] = regs, bits
	}
	if assist {
		sz["assist"] = 1
	}
	if bug {
		sz["bug"] = 1
	}
	for _, kv := range strings.Split(params, ",") {
		if kv = strings.TrimSpace(kv); kv == "" {
			continue
		}
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad -params entry %q (want name=value)", kv)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil {
			return nil, fmt.Errorf("bad -params value in %q: %v", kv, err)
		}
		sz[strings.TrimSpace(name)] = n
	}
	return sz, nil
}
