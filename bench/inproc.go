package main

import (
	"bufio"
	"context"
	"fmt"
	"os/exec"
	"slices"
	"strings"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/resource"
	"repro/internal/verify"
	"repro/internal/zoo"
)

// The in-process workloads run the paper's Table 2 and Table 3 rows the
// way a verification engineer runs iciverify: each instance builds its
// model from the zoo, instantiates it on a fresh manager and runs XICI,
// one instance after another on one goroutine. Budgets and options are
// the paper tables' (internal/bench/tables.go).
var (
	filterBudget   = resource.Budget{NodeLimit: 12_000_000, Timeout: 3 * time.Minute}
	pipelineBudget = resource.Budget{NodeLimit: 3_500_000, Timeout: 2 * time.Minute}
)

// instance is one in-process verification and the counts the paper's
// table reports for it.
type instance struct {
	Label   string
	Entry   string
	Size    zoo.Size
	Compose bool // backward images by functional composition (Table 3)
	Opt     verify.Options
	Want    want
}

// want is the reference answer: a verified verdict after Iterations
// images, with the peak iterate's node count and conjunct profile.
type want struct {
	Iterations     int
	PeakStateNodes int
	Profile        []int
}

func (w want) matches(o verify.Outcome, iterations, peak int, profile []int) bool {
	return o == verify.Verified && iterations == w.Iterations && peak == w.PeakStateNodes && slices.Equal(profile, w.Profile)
}

// filterInstance is Table 2's row: the 8-bit moving-average filter
// without assisting invariants.
func filterInstance(depth int, w want) instance {
	return instance{
		Label: fmt.Sprintf("filter-d%d", depth), Entry: "filter",
		Size: zoo.Size{"depth": depth, "width": 8},
		Opt:  verify.Options{Budget: filterBudget}, Want: w,
	}
}

// pipelineInstance is Table 3's XICI* row: the user partition, greedy
// merging off, and pre-images by functional composition.
func pipelineInstance(regs, width int, w want) instance {
	return instance{
		Label: fmt.Sprintf("pipeline-r%d-w%d", regs, width), Entry: "pipeline",
		Size: zoo.Size{"regs": regs, "width": width, "assist": 1}, Compose: true,
		Opt: verify.Options{Budget: pipelineBudget, Core: core.Options{SkipEvaluate: true}}, Want: w,
	}
}

// inProcess is one in-process workload: a large instance, whose working
// set is far outside the CPU caches, and a small one that fits inside
// them. A run verifies the large instance once and then the small one
// over and over until the run's time is up, at least minSmall times; a
// traced run, whose per-layer counts must not depend on how fast the
// host ran, verifies the small one exactly tracedSmall times.
//
// The large instance runs first and once: on a 2-CPU host filter-d16
// alone takes 11-24 s and pipeline-r4-w1 8-16 s, so a second run would
// not fit a 25 s run, and running it first keeps what the small
// instances find in the heap the same in every run. The inputs are the
// paper's fixed instances; the seed does not change them.
type inProcess struct {
	large, small          instance
	minSmall, tracedSmall int
}

// inProcessWorkloads: filter-d16 spends nearly all its time in image
// computation, pipeline-r4-w1 most of its time in the exact termination
// test.
var inProcessWorkloads = map[string]inProcess{
	"filter-image": {
		large:    filterInstance(16, want{4, 2558, []int{141, 290, 629, 1501}}),
		small:    filterInstance(8, want{3, 638, []int{81, 169, 390}}),
		minSmall: 30, tracedSmall: 20,
	},
	"pipeline-term": {
		large:    pipelineInstance(4, 1, want{3, 20344, []int{3, 3, 3, 3, 97, 97, 97, 97, 2780, 2798, 2835, 2832, 4076, 4917, 5797, 5088}}),
		small:    pipelineInstance(2, 2, want{3, 7008, []int{6, 6, 133, 137, 2357, 2643, 2680, 916}}),
		minSmall: 10, tracedSmall: 6,
	},
}

func runFilterImage(ctx context.Context, cfg config) (*report, error) {
	return runInProcess(ctx, cfg, inProcessWorkloads["filter-image"])
}

func runPipelineTerm(ctx context.Context, cfg config) (*report, error) {
	return runInProcess(ctx, cfg, inProcessWorkloads["pipeline-term"])
}

// runInProcess runs one in-process workload. A traced run also replays
// every instance through the layers' public calls and probes the kernel.
func runInProcess(ctx context.Context, cfg config, w inProcess) (*report, error) {
	rep := newReport()
	setup, err := inProcessSetup(ctx, cfg)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup)
	if cfg.Trace {
		rep.Spans = newTracer()
	}
	probe, err := newMemProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()

	// The timing metrics come from the small instances, whose count
	// depends on how fast the host ran; the large instance's time is in
	// the report line.
	var acc layerAcc
	var lat, scaled, probes []float64 // small instances
	var order []string                // "label ms scaled_ms" per instance, in run order
	var busyMS, scaledBusyMS float64  // small instances
	correct, peakLive := 0, 0
	settle()
	before := probe.read()
	probes = append(probes, before)
	start := time.Now()
	for i := 0; ; i++ {
		in := w.large
		if i > 0 {
			in = w.small
			small := i - 1
			if cfg.Trace && small == w.tracedSmall || !cfg.Trace && small >= w.minSmall && time.Since(start) >= cfg.Duration {
				break
			}
		}
		unit := fmt.Sprintf("%s#%d", in.Label, i)
		out, err := runInstance(ctx, in)
		if err != nil {
			return nil, err
		}
		settle()
		after := probe.read()
		probes = append(probes, after)
		l := ms(out.latency)
		s := scaledMS(l, before, after)
		before = after
		rep.Attempted++
		order = append(order, fmt.Sprintf("%s %.1f %.1f", in.Label, l, s))
		peakLive = max(peakLive, out.peakLive)
		acc.addRun(out)
		r := out.res
		ok := in.Want.matches(r.Outcome, r.Iterations, r.PeakStateNodes, r.PeakProfile)
		if !ok {
			rep.Failed++
			rep.Wrong++
			rep.Details["mismatch:"+unit] = fmt.Sprintf("%v iter=%d nodes=%d profile=%v", r.Outcome, r.Iterations, r.PeakStateNodes, r.PeakProfile)
		}
		if i == 0 {
			rep.Details["latency_ms:"+in.Label] = l
			rep.Details["scaled_latency_ms:"+in.Label] = s
		} else {
			lat = append(lat, l)
			scaled = append(scaled, s)
			busyMS += l
			scaledBusyMS += s
			if ok {
				correct++
			}
		}
		if !cfg.Trace {
			continue
		}
		rr, err := replay(ctx, rep.Spans, unit, in)
		if err != nil {
			return nil, err
		}
		settle()
		before = probe.read() // the replay ran since the last reading
		acc.addReplay(rr)
		if !in.Want.matches(rr.outcome, rr.iterations, rr.peak, rr.profile) {
			rep.Wrong++
			rep.Details["replay-mismatch:"+unit] = fmt.Sprintf("%v iter=%d nodes=%d profile=%v", rr.outcome, rr.iterations, rr.peak, rr.profile)
		}
	}

	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	rep.setTimes(float64(correct)/(busyMS/1000), float64(correct)/(scaledBusyMS/1000), lat, scaled, probes)
	rep.set("peak_rss_mb", rss-probeBytes/(1<<20)) // the probe's buffer is resident throughout
	rep.set("peak_live_nodes", float64(peakLive))
	rep.Details["instances"] = order
	rep.Details["latency_ms:"+w.small.Label] = map[string]float64{"min": percentile(lat, 0), "p50": percentile(lat, 0.5), "max": percentile(lat, 1), "n": float64(len(lat))}
	acc.report(rep)
	return rep, nil
}

// setupRepeats is how many times set-up is timed; the median is kept.
const setupRepeats = 31

// inProcessSetup times process start to the first instance: it runs
// this binary with -setup-probe, which stops where the workload would
// begin its first instance.
func inProcessSetup(ctx context.Context, cfg config) (float64, error) {
	xs := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.CommandContext(ctx, cfg.Self, "-setup-probe", "-workload", cfg.Workload)
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		if rerr != nil || strings.TrimSpace(line) != "ready" {
			return 0, fmt.Errorf("set-up probe printed %q (%v)", line, rerr)
		}
		xs = append(xs, d.Seconds())
	}
	return percentile(xs, 0.5), nil
}

// instRun is one untraced instance: the engine's result, the manager's
// counters, and the times around each frontend step.
type instRun struct {
	res                verify.Result
	stats              bdd.Stats
	build, instantiate time.Duration
	latency            time.Duration
	peakLive           int
	gc                 goGC // this process's collector work during the instance
}

func runInstance(ctx context.Context, in instance) (instRun, error) {
	g0 := readGoGC()
	t0 := time.Now()
	mo, err := zoo.Build(in.Entry, in.Size)
	if err != nil {
		return instRun{}, err
	}
	t1 := time.Now()
	m := bdd.NewWithSize(1<<16, 20)
	p, err := mo.Instantiate(m)
	if err != nil {
		return instRun{}, fmt.Errorf("instantiating %s: %w", in.Label, err)
	}
	if in.Compose {
		p.Machine.PreImageMode = fsm.PreCompose
	}
	t2 := time.Now()
	res := verify.RunContext(ctx, p, verify.XICI, in.Opt)
	t3 := time.Now()
	g1 := readGoGC()
	if err := ctx.Err(); err != nil {
		return instRun{}, err
	}
	return instRun{
		res: res, stats: m.Stats(), build: t1.Sub(t0), instantiate: t2.Sub(t1),
		latency: t3.Sub(t0), peakLive: m.PeakNodes(),
		gc: goGC{cycles: g1.cycles - g0.cycles, pause: g1.pause - g0.pause},
	}, nil
}

// replayRun is one traced instance: the replay's answer, the time in
// each replayed call, computed-cache deltas around the image and
// termination calls, and the kernel probe.
type replayRun struct {
	outcome                         verify.Outcome
	iterations, peak                int
	profile                         []int
	wall                            time.Duration // build to verdict; the probe is not included
	backImage, listsEqual, simplify time.Duration
	biLookups, biHits               uint64
	teLookups, teHits               uint64
	probe                           probeTotals
}

// replay runs an instance again on a fresh manager, with the XICI loop
// unrolled into public calls, each inside a span.
func replay(ctx context.Context, tr *tracer, unit string, in instance) (replayRun, error) {
	var rr replayRun
	root := tr.reserve()
	t0 := time.Now()
	mo, err := zoo.Build(in.Entry, in.Size)
	if err != nil {
		return rr, err
	}
	t1 := time.Now()
	tr.add(root, "ir.build", unit, t0, t1)
	m := bdd.NewWithSize(1<<16, 20)
	p, err := mo.Instantiate(m)
	if err != nil {
		return rr, fmt.Errorf("instantiating %s: %w", in.Label, err)
	}
	if in.Compose {
		p.Machine.PreImageMode = fsm.PreCompose
	}
	t2 := time.Now()
	tr.add(root, "ir.instantiate", unit, t1, t2)

	loop := tr.reserve()
	b := in.Opt.Budget
	b.Ctx = ctx
	restore := m.ApplyBudget(b.Norm().Start(t2))
	var final []bdd.Ref
	err = bdd.Guard(func() { final = xiciLoop(tr, loop, unit, p, in.Opt, &rr) })
	restore()
	t3 := time.Now()
	tr.fill(loop, root, "verify.xici", unit, t2, t3)
	tr.fill(root, 0, "instance", unit, t0, t3)
	rr.wall = t3.Sub(t0)
	if err != nil {
		return rr, fmt.Errorf("replaying %s: %w", in.Label, err)
	}

	p0 := time.Now()
	probeKernel(p.Machine, final, &rr.probe)
	tr.add(0, "bdd.probe", unit, p0, time.Now())
	return rr, nil
}

// replayMaxIter bounds a replay that fails to converge; the paper's
// instances converge within five iterations.
const replayMaxIter = 1000

// xiciLoop is the loop of verify's XICI engine written with the public
// calls it makes: G_{i+1} = G_0 ∧ BackImage(G_i), simplified by the
// Section III.A policy, until the exact termination test finds
// G_{i+1} = G_i or an iterate excludes an initial state. It returns the
// final iterate's conjuncts.
func xiciLoop(tr *tracer, parent int, unit string, p verify.Problem, opt verify.Options, rr *replayRun) []bdd.Ref {
	ma := p.Machine
	m := ma.M
	init := ma.Init()
	term := core.NewTermination(m)
	copt := opt.Core
	g0 := p.GoodList
	if len(g0) == 0 {
		g0 = []bdd.Ref{p.Good}
	}

	// timed runs f in a span with a computed-cache delta. The counter
	// snapshots are charged to the tracer's cost, as add charges itself.
	timed := func(name string, acc *time.Duration, lookups, hits *uint64, f func()) {
		in := time.Now()
		s0 := m.Stats()
		t0 := time.Now()
		f()
		t1 := time.Now()
		s1 := m.Stats()
		tr.charge(t0.Sub(in) + time.Since(t1))
		tr.add(parent, name, unit, t0, t1)
		if acc != nil {
			*acc += t1.Sub(t0)
		}
		if lookups != nil {
			*lookups += s1.CacheLookups - s0.CacheLookups
			*hits += s1.CacheHits - s0.CacheHits
		}
	}
	observe := func(l core.List) {
		if s := l.SharedSize(); s > rr.peak {
			rr.peak, rr.profile = s, l.Sizes()
		}
	}

	var g core.List
	timed("core.simplify_evaluate", &rr.simplify, nil, nil, func() {
		g = core.SimplifyAndEvaluate(core.NewList(m, g0...), copt)
	})
	observe(g)
	for i := 0; ; i++ {
		var vi int
		timed("core.violating_conjunct", nil, nil, nil, func() { vi = g.ViolatingConjunct(init) })
		if vi >= 0 {
			rr.outcome, rr.iterations = verify.Violated, i
			return g.Conjuncts
		}
		if i >= replayMaxIter {
			rr.outcome, rr.iterations = verify.Exhausted, i
			return g.Conjuncts
		}
		var back []bdd.Ref
		timed("fsm.back_image", &rr.backImage, &rr.biLookups, &rr.biHits, func() { back = ma.BackImageList(g.Conjuncts) })
		gn := core.NewList(m, append(append([]bdd.Ref(nil), g0...), back...)...)
		timed("core.simplify_evaluate", &rr.simplify, nil, nil, func() { gn = core.SimplifyAndEvaluate(gn, copt) })
		observe(gn)
		var conv bool
		timed("core.lists_equal", &rr.listsEqual, &rr.teLookups, &rr.teHits, func() { conv = term.ListsEqual(g, gn) })
		if conv {
			rr.outcome, rr.iterations = verify.Verified, i+1
			return gn.Conjuncts
		}
		g = gn
	}
}

// probeTotals accumulates the kernel probe: calls, nanoseconds and
// nodes created, per operation (ITE, AndExists, Restrict).
type probeTotals struct {
	calls int
	ns    [3]float64
	nodes [3]float64
}

// probeKernel times the first call of ITE(c_i, c_j, ¬c_j),
// AndExists(c_i, c_j, state cube) and Restrict(c_i, c_j) for every
// ordered pair of the final iterate's conjuncts, on the instance's own
// manager, caches still warm from the run.
func probeKernel(ma *fsm.Machine, cs []bdd.Ref, pt *probeTotals) {
	m := ma.M
	cube := ma.StateCube()
	ops := [3]func(f, g bdd.Ref) bdd.Ref{
		func(f, g bdd.Ref) bdd.Ref { return m.ITE(f, g, g.Not()) },
		func(f, g bdd.Ref) bdd.Ref { return m.AndExists(f, g, cube) },
		m.Restrict,
	}
	for i := range cs {
		for j := range cs {
			if i == j {
				continue
			}
			for k, op := range ops {
				n0 := m.NumNodes()
				t0 := time.Now()
				op(cs[i], cs[j])
				pt.ns[k] += float64(time.Since(t0).Nanoseconds())
				pt.nodes[k] += float64(m.NumNodes() - n0)
			}
			pt.calls++
		}
	}
}

// layerAcc sums the per-layer measurements of every instance.
type layerAcc struct {
	lookups, hits, uniq, created, gcs, freed float64
	taut, splits, pairs, merges, iterations  float64
	peakState                                int
	image, policy, term, unattributed        time.Duration
	build, instantiate                       time.Duration
	goGC                                     goGC

	backImage, listsEqual, simplify time.Duration
	biLookups, biHits               uint64
	teLookups, teHits               uint64
	probe                           probeTotals
	replayWall                      time.Duration
}

func (a *layerAcc) addRun(r instRun) {
	st, res := r.stats, r.res
	a.lookups += float64(st.CacheLookups)
	a.hits += float64(st.CacheHits)
	a.uniq += float64(st.UniqueHits)
	a.created += float64(st.Nodes + st.FreedNodes)
	a.gcs += float64(st.GCs)
	a.freed += float64(st.FreedNodes)
	a.taut += float64(res.Term.TautCalls)
	a.splits += float64(res.Term.ShannonSplits)
	a.pairs += float64(res.Eval.PairsScored)
	a.merges += float64(res.Eval.MergesApplied)
	a.iterations += float64(res.Iterations)
	a.peakState = max(a.peakState, res.PeakStateNodes)
	ph := res.PhaseDurations
	a.image += ph[verify.PhaseImage]
	a.policy += ph[verify.PhasePolicy]
	a.term += ph[verify.PhaseTerm]
	a.unattributed += res.Elapsed - ph.Total()
	a.build += r.build
	a.instantiate += r.instantiate
	a.goGC.cycles += r.gc.cycles
	a.goGC.pause += r.gc.pause
}

func (a *layerAcc) addReplay(rr replayRun) {
	a.backImage += rr.backImage
	a.listsEqual += rr.listsEqual
	a.simplify += rr.simplify
	a.biLookups += rr.biLookups
	a.biHits += rr.biHits
	a.teLookups += rr.teLookups
	a.teHits += rr.teHits
	a.probe.calls += rr.probe.calls
	for k := range rr.probe.ns {
		a.probe.ns[k] += rr.probe.ns[k]
		a.probe.nodes[k] += rr.probe.nodes[k]
	}
	a.replayWall += rr.wall
}

// report sets the per-layer metrics: totals over the run, and ratios.
// Only a traced run prints them, and its instance list is fixed.
func (a *layerAcc) report(rep *report) {
	rep.set("bdd.cache_lookups", a.lookups)
	rep.set("bdd.cache_hit_rate", ratio(a.hits, a.lookups))
	rep.set("bdd.unique_hit_rate", ratio(a.uniq, a.uniq+a.created))
	rep.set("bdd.nodes_created", a.created)
	rep.set("bdd.gcs", a.gcs)
	rep.set("bdd.freed_nodes", a.freed)
	calls := float64(a.probe.calls)
	for k, op := range []string{"ite", "and_exists", "restrict"} {
		rep.set("bdd."+op+"_ns", ratio(a.probe.ns[k], calls))
		rep.set("bdd."+op+"_nodes", ratio(a.probe.nodes[k], calls))
	}
	rep.Samples["bdd.probe_calls"] = a.probe.calls
	rep.set("go.gc_cycles", float64(a.goGC.cycles))
	rep.set("go.gc_pause_s", a.goGC.pause.Seconds())
	rep.set("verify.image_s", a.image.Seconds())
	rep.set("fsm.back_image_s", a.backImage.Seconds())
	rep.set("fsm.back_image.cache_hit_rate", ratio(float64(a.biHits), float64(a.biLookups)))
	rep.set("verify.term_s", a.term.Seconds())
	rep.set("core.lists_equal_s", a.listsEqual.Seconds())
	rep.set("core.taut_calls", a.taut)
	rep.set("core.shannon_splits", a.splits)
	rep.set("core.term.cache_hit_rate", ratio(float64(a.teHits), float64(a.teLookups)))
	rep.set("verify.policy_s", a.policy.Seconds())
	rep.set("core.simplify_evaluate_s", a.simplify.Seconds())
	rep.set("core.pairs_scored", a.pairs)
	rep.set("core.merges_applied", a.merges)
	rep.set("verify.unattributed_s", a.unattributed.Seconds())
	rep.set("verify.iterations", a.iterations)
	rep.set("verify.peak_state_nodes", float64(a.peakState))
	rep.set("ir.build_s", a.build.Seconds())
	rep.set("ir.instantiate_s", a.instantiate.Seconds())
	rep.set("trace.overhead_frac", rep.Spans.overhead(a.replayWall))
}
