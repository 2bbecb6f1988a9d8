// Command iciverify runs one verification engine on one benchmark model
// and prints the paper-style statistics row, optionally with a
// counterexample trace.
//
// Usage:
//
//	iciverify -model fifo -params depth=5
//	iciverify -model filter -params depth=8,assist=1 -engines ICI
//	iciverify -model pipeline -params regs=2,width=3 -engines Bkwd -nodelimit 2000000
//	iciverify -model network -engines FD          # zoo defaults (4 processors)
//	iciverify -model fifo -params depth=3,bug=1 -engines Fwd -trace
//	iciverify -model fifo -params depth=4 -engines Fwd,Bkwd,XICI
//	iciverify -model elevator -params floors=5
//	iciverify -model fsm/turnstile -engines Fwd -trace
//	iciverify -fsm machine.fsm
//	iciverify -engines list
//
// Built-in models resolve through the zoo registry (every entry `icid`
// serves and `icibench -zoo` grids). -params sets an entry's named
// parameters as name=value pairs, the names icid's GET /models lists:
// depth for fifo and filter, procs for network, caches for coherence,
// data-bits for link, regs and width for the pipeline, and assist=1 or
// bug=1 for the assisted or bugged variant. A parameter left unset
// keeps the entry's default. -engines runs one or more engines in
// sequence (default XICI). -events appends one NDJSON line per engine
// event. -fsm imports an FSM-toolkit .fsm machine from disk (see
// internal/fsmtk); -file verifies a textual model (see internal/lang);
// neither takes -params.
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
	"encoding/json"
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
		params    = fs.String("params", "", "comma-separated name=value zoo parameters (e.g. depth=8,assist=1 or floors=5,bug=1); unset ones keep the model's defaults")
		engines   = fs.String("engines", "XICI", "comma-separated engines to run in sequence (Fwd, FwdID, Bkwd, FD, ICI, XICI, Induction, PDR); \"list\" prints the registered engines and exits")
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
	case *params != "" && (*file != "" || *fsmFile != ""):
		fmt.Fprintln(stderr, "iciverify: -params only applies to a -model; -file and -fsm models set their own sizes")
		return 2
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
		sz, err := parseParams(*params)
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
		m := bdd.New()
		p, err := instantiate(m)
		if err == nil && *compose {
			p.Machine.PreImageMode = fsm.PreCompose
		}
		return m, p, err
	}
	m, p, err := newProblem()
	defer func() { m.Close() }() // the last engine's manager; the loop closes the others
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

	if *events != "" {
		f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "iciverify: %v\n", err)
			return 2
		}
		enc := json.NewEncoder(f)
		failed := false
		report := func(err error) {
			if err != nil && !failed {
				failed = true
				fmt.Fprintf(stderr, "iciverify: -events: %v\n", err)
			}
		}
		defer func() { report(f.Close()) }()
		opt.Observer = func(e verify.Event) { report(enc.Encode(e)) }
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

	// The run list resolves through verify.Resolve, case-insensitively
	// ("pdr" works).
	var methods []verify.Method
	for _, name := range strings.Split(*engines, ",") {
		meth, ok := verify.Resolve(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(stderr, "iciverify: unknown engine %q (try -engines list)\n", strings.TrimSpace(name))
			return 2
		}
		methods = append(methods, meth)
	}

	fmt.Fprintf(stdout, "model %s  (%d state bits, %d input bits)\n",
		p.Name, p.Machine.StateBits(), p.Machine.InputBits())

	exit := 0
	for i, meth := range methods {
		if i > 0 {
			m.Close()
			if m, p, err = newProblem(); err != nil {
				fmt.Fprintf(stderr, "iciverify: %v\n", err)
				return 2
			}
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

// parseParams reads the -params list into the zoo size overrides; a
// parameter left out keeps the entry's default.
func parseParams(params string) (zoo.Size, error) {
	sz := zoo.Size{}
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
