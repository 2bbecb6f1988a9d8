package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// A sweep runs each workload once per seed 1..n, each run in its own
// process, and summarizes every metric of the result lines by median
// and interquartile spread. The committed results/ files are sweeps.

type sweepConfig struct {
	Self, Icid, WorkDir string
	Runs                int
	Seconds             float64
	Trace               bool
	Out                 string
}

// metricSummary is one metric over the runs of a sweep.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 - q1) / median
}

type workloadSweep struct {
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Correct   bool                     `json:"correct"`
	Metrics   map[string]metricSummary `json:"metrics"`
	Reports   []json.RawMessage        `json:"reports"`
}

type sweepFile struct {
	Env       map[string]any            `json:"env"`
	Runs      int                       `json:"runs"`
	Trace     bool                      `json:"trace"`
	Workloads map[string]*workloadSweep `json:"workloads"`
}

func runSweep(ctx context.Context, sc sweepConfig) error {
	out := sweepFile{
		Env:       environment(config{Duration: 0}),
		Runs:      sc.Runs,
		Trace:     sc.Trace,
		Workloads: map[string]*workloadSweep{},
	}
	delete(out.Env, "seed")
	out.Env["seconds"] = sc.Seconds
	trace := "0"
	if sc.Trace {
		trace = "1"
	}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, w := range workloadNames() {
		out.Workloads[w] = &workloadSweep{Correct: true, Metrics: map[string]metricSummary{}}
		values[w] = map[string][]float64{}
	}
	// Seed-major order spreads each workload's runs over the whole sweep,
	// so no workload's runs all fall in one slow or fast stretch of the
	// host.
	for seed := 1; seed <= sc.Runs; seed++ {
		for _, w := range workloadNames() {
			ws := out.Workloads[w]
			cmd := exec.CommandContext(ctx, sc.Self, "-workload", w, "-seed", strconv.Itoa(seed),
				"-seconds", strconv.FormatFloat(sc.Seconds, 'f', -1, 64), "-trace", trace,
				"-icid", sc.Icid, "-workdir", sc.WorkDir)
			cmd.Stderr = os.Stderr
			b, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(b)), "\n")
			if len(lines) < 2 {
				return fmt.Errorf("%s seed %d: no result line", w, seed)
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			ws.Reports = append(ws.Reports, json.RawMessage(lines[len(lines)-2]))
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
			ws.Correct = ws.Correct && res.Correct
			for name, m := range res.Metrics {
				values[w][name] = append(values[w][name], m.Value)
				units[name] = m.Unit
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", w, seed, lines[len(lines)-1])
		}
	}
	for w, ws := range out.Workloads {
		for name, xs := range values[w] {
			q1, q2, q3 := quartiles(xs)
			ws.Metrics[name] = metricSummary{Unit: units[name], Values: xs, Median: q2, Q1: q1, Q3: q3, Spread: ratio(q3-q1, q2)}
		}
	}

	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if sc.Out != "" {
		if err := os.WriteFile(sc.Out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	printSweep(out)
	return nil
}

// printSweep prints one row per workload and metric: the median and the
// interquartile spread as a share of it.
func printSweep(s sweepFile) {
	names := make([]string, 0, len(s.Workloads))
	for w := range s.Workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		ws := s.Workloads[w]
		fmt.Printf("%s: attempted %d, failed %d, correct %v\n", w, ws.Attempted, ws.Failed, ws.Correct)
		metrics := make([]string, 0, len(ws.Metrics))
		for m := range ws.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			ms := ws.Metrics[m]
			fmt.Printf("  %-32s %14.6g %-6s spread %6.2f%%\n", m, ms.Median, ms.Unit, 100*ms.Spread)
		}
	}
}
