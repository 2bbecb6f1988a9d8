// Command bench is the repository's benchmark. One process runs one
// workload, generates that workload's inputs from -seed, measures for
// -seconds, checks every answer, and prints one JSON result line last on
// standard output:
//
//	bash bench/run.sh --workload filter-image --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//	filter-image   Table 2's unassisted 8-bit filter under XICI, in process
//	pipeline-term  Table 3's XICI* pipeline configuration, in process
//	icid-zipf      two closed-loop clients against icid with a store
//	zoo-batch      one client submitting the zoo grid as portfolio batches
//
// With -trace 0 the result line carries the end-to-end metrics; with
// -trace 1 it carries the per-layer metrics, and the run records spans
// in memory and writes them under -workdir at exit. The line before the
// result line is a report: the environment, sample counts, every metric
// computed, and workload details. README.md explains each metric.
//
// The benchmark reaches the engine only through the public functions of
// the zoo, ir, lang, difftest, verify, fsm, core and bdd packages, and
// reaches icid only over HTTP with its own wire structs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit. The two lists
// below are the benchmark's schema; BENCHMARK.json lists the same names.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, each defined the same way on every
// workload, and none is ever 0. Throughput is scaled to a fixed memory
// speed (probe.go). The raw throughput and the latency medians are in
// the report line but not gated: on the shared reference host the
// icid-zipf median spread 13-21% raw and 7-17% scaled between runs of
// one build, against 4-11% for scaled throughput.
var endToEnd = []metricSpec{
	{"scaled_verdicts_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"peak_live_nodes", "count"},
	{"answered_frac", "ratio"},
}

// perLayer are the metrics of single layers, reported by traced runs.
// A workload that does not exercise a layer reports 0 for its metrics.
var perLayer = []metricSpec{
	{"bdd.cache_lookups", "count"},
	{"bdd.cache_hit_rate", "ratio"},
	{"bdd.unique_hit_rate", "ratio"},
	{"bdd.nodes_created", "count"},
	{"bdd.gcs", "count"},
	{"bdd.freed_nodes", "count"},
	{"bdd.and_exists_ns", "ns"},
	{"bdd.and_exists_nodes", "count"},
	{"bdd.ite_ns", "ns"},
	{"bdd.ite_nodes", "count"},
	{"bdd.restrict_ns", "ns"},
	{"bdd.restrict_nodes", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"verify.image_s", "s"},
	{"fsm.back_image_s", "s"},
	{"fsm.back_image.cache_hit_rate", "ratio"},
	{"verify.term_s", "s"},
	{"core.lists_equal_s", "s"},
	{"core.taut_calls", "count"},
	{"core.shannon_splits", "count"},
	{"core.term.cache_hit_rate", "ratio"},
	{"verify.policy_s", "s"},
	{"core.simplify_evaluate_s", "s"},
	{"core.pairs_scored", "count"},
	{"core.merges_applied", "count"},
	{"verify.unattributed_s", "s"},
	{"verify.iterations", "count"},
	{"verify.peak_state_nodes", "count"},
	{"ir.build_s", "s"},
	{"ir.instantiate_s", "s"},
	{"lang.canon_us.p50", "us"},
	{"server.hit_ms.p50", "ms"},
	{"server.miss_ms.p50", "ms"},
	{"server.miss_ms.p99", "ms"},
	{"server.overhead_ms.p50", "ms"},
	{"server.cache_memory_frac", "ratio"},
	{"server.cache_store_frac", "ratio"},
	{"server.cache_miss_frac", "ratio"},
	{"server.cache_evictions", "count"},
	{"server.cpu_ms_per_req", "ms"},
	{"server.rejected", "count"},
	{"server.attempts_per_member", "ratio"},
	{"server.escalations", "count"},
	{"server.worker_busy_frac", "ratio"},
	{"store.puts", "count"},
	{"store.gets", "count"},
	{"store.get_misses", "count"},
	{"store.bytes", "bytes"},
	{"trace.overhead_frac", "ratio"},
}

// config is what a workload runner needs from the command line.
type config struct {
	Workload string
	Seed     int64
	Duration time.Duration
	Trace    bool
	Icid     string // prebuilt icid binary (service workloads)
	Self     string // this benchmark's binary, re-executed to time set-up
	WorkDir  string // scratch space inside the checkout
}

// report is what a workload runner returns: attempt tallies, every
// metric it computed, the sample count behind each percentile, and
// workload details for the report line.
type report struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Wrong     int                `json:"wrong"`
	Values    map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	Details   map[string]any     `json:"details,omitempty"`
	Spans     *tracer            `json:"-"`
}

func newReport() *report {
	r := &report{Values: map[string]float64{}, Samples: map[string]int{"setup_s": setupRepeats}, Details: map[string]any{}}
	for _, set := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range set {
			r.Values[m.name] = 0.0
		}
	}
	return r
}

func (r *report) set(name string, v float64) {
	if _, ok := r.Values[name]; !ok {
		panic("bench: unknown metric " + name)
	}
	r.Values[name] = v
}

// setTimes sets the throughput metric and puts the raw throughput, the
// medians of the latency samples, raw and scaled, and the median probe
// reading in the report line. There is one latency sample per answer
// the user waits for: an instance, a request or a batch.
func (r *report) setTimes(vps, scaledVPS float64, lat, scaled, probes []float64) {
	r.set("scaled_verdicts_per_s", scaledVPS)
	r.Details["verdicts_per_s"] = vps
	r.Details["latency_ms.p50"] = percentile(lat, 0.5)
	r.Details["scaled_latency_ms.p50"] = percentile(scaled, 0.5)
	r.Samples["latency_ms.p50"] = len(lat)
	r.Details["probe_ms.p50"] = percentile(probes, 0.5)
	r.Samples["probe_ms.p50"] = len(probes)
}

// failedFrac is the share of attempts that did not return the reference
// answer.
func (r *report) failedFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// runner runs one workload.
type runner func(ctx context.Context, cfg config) (*report, error)

var workloads = map[string]runner{
	"filter-image":  runFilterImage,
	"pipeline-term": runPipelineTerm,
	"icid-zipf":     runZipf,
	"zoo-batch":     runZooBatch,
}

// Metric is one value of the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload   = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed       = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds    = flag.Float64("seconds", 25, "how long to measure")
		trace      = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
		icid       = flag.String("icid", "", "prebuilt icid binary, for the service workloads")
		workDir    = flag.String("workdir", ".bench_build", "scratch directory for stores and span files")
		setupProbe = flag.Bool("setup-probe", false, "internal: print \"ready\" where the workload would start, then exit")
		sweep      = flag.Int("sweep", 0, "run every workload this many times with seeds 1..n and summarize (see sweep.go)")
		sweepOut   = flag.String("out", "", "with -sweep: file the summary is written to")
	)
	flag.Parse()

	if *setupProbe {
		return probeSetup(*workload)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: locating own binary: %v\n", err)
		return 1
	}
	absWork, err := filepath.Abs(*workDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *sweep > 0 {
		err := runSweep(ctx, sweepConfig{
			Self: self, Icid: *icid, WorkDir: absWork, Runs: *sweep, Seconds: *seconds,
			Trace: *trace == 1, Out: *sweepOut,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: sweep: %v\n", err)
			return 1
		}
		return 0
	}

	fn, ok := workloads[*workload]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	case !(*seconds > 0) || math.IsInf(*seconds, 0):
		fmt.Fprintf(os.Stderr, "bench: -seconds must be positive, got %v\n", *seconds)
		return 2
	}
	cfg := config{
		Workload: *workload, Seed: *seed, Duration: time.Duration(*seconds * float64(time.Second)),
		Trace: *trace == 1, Icid: *icid, Self: self, WorkDir: absWork,
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}

	rep, err := fn(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	if cfg.Trace {
		path := filepath.Join(cfg.WorkDir, "spans", fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed))
		if err := rep.Spans.write(path, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing spans: %v\n", err)
			return 1
		}
		if wd, err := os.Getwd(); err == nil {
			if rel, err := filepath.Rel(wd, path); err == nil {
				path = rel
			}
		}
		rep.Details["spans_file"] = path
		rep.Details["span_summary"] = rep.Spans.summary()
	}
	if err := emit(os.Stdout, cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if rep.Wrong > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d wrong answers\n", cfg.Workload, rep.Wrong)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// emit prints the report line and then the result line.
func emit(w io.Writer, cfg config, rep *report) error {
	// answered_frac is 1 - failed_frac: failed_frac is 0 on a healthy
	// build, and an end-to-end metric may never be 0.
	rep.set("answered_frac", 1-rep.failedFrac())
	line := map[string]any{
		"workload":    cfg.Workload,
		"env":         environment(cfg),
		"wrong":       rep.Wrong,
		"failed_frac": rep.failedFrac(),
		"report":      rep,
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))

	res := result{
		Correct:   rep.Wrong == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]Metric{},
	}
	set := endToEnd
	if cfg.Trace {
		set = perLayer
	}
	for _, m := range set {
		res.Metrics[m.name] = Metric{Value: rep.Values[m.name], Unit: m.unit}
	}
	b, err = json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// environment is the block every report carries.
func environment(cfg config) map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_sha":    gitSHA(),
		"seed":       cfg.Seed,
		"seconds":    cfg.Duration.Seconds(),
		"trace":      cfg.Trace,
	}
}

// gitSHA names the commit the benchmark was built from, as go build
// stamps it; a checkout without .git has no stamp and reads "unknown".
func gitSHA() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// probeSetup is the child side of the in-process set-up measurement: it
// stops where the workload would begin its first instance, and says so.
// The instances are fixed, so nothing but process start-up and package
// initialization precedes the first one; the memory probe is the
// benchmark's, not the program's, and is left out.
func probeSetup(workload string) int {
	if _, ok := inProcessWorkloads[workload]; !ok {
		fmt.Fprintf(os.Stderr, "bench: -setup-probe: %q is not an in-process workload\n", workload)
		return 2
	}
	fmt.Println("ready")
	return 0
}
