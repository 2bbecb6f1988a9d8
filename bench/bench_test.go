package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/zoo"
)

// The smoke test runs every workload runner on a shrunken input for a
// few seconds, traced, and checks the output against BENCHMARK.json.
// Run it from this directory: go test .

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) with the default method.
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []metricSpec, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: code has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: code %s/%s, BENCHMARK.json %s/%s", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, code has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds icid and runs every workload")
	}
	dir := t.TempDir()
	self := filepath.Join(dir, "bench")
	icid := filepath.Join(dir, "icid")
	for _, b := range [][]string{{"-o", self, "."}, {"-o", icid, "repro/cmd/icid"}} {
		cmd := exec.Command("go", append([]string{"build"}, b...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", b, err, out)
		}
	}
	base := config{Seed: 7, Duration: 2 * time.Second, Trace: true, Icid: icid, Self: self, WorkDir: dir}

	filter4 := filterInstance(4, want{2, 146, []int{45, 102}})
	smallFilter := inProcess{large: filter4, small: filter4, minSmall: 2, tracedSmall: 2}
	pipeline21 := pipelineInstance(2, 1, want{3, 728, []int{3, 3, 39, 39, 300, 308, 300}})
	smallPipeline := inProcess{large: pipeline21, small: pipeline21, minSmall: 2, tracedSmall: 2}
	var cheapGrid []gridCell
	for _, c := range zooGrid {
		if c.engine == "FD" {
			cheapGrid = append(cheapGrid, c)
		}
	}
	runs := []struct {
		name string
		run  func(context.Context, config) (*report, error)
	}{
		{"filter-image", func(ctx context.Context, cfg config) (*report, error) { return runInProcess(ctx, cfg, smallFilter) }},
		{"pipeline-term", func(ctx context.Context, cfg config) (*report, error) { return runInProcess(ctx, cfg, smallPipeline) }},
		{"icid-zipf", runZipf},
		{"zoo-batch", func(ctx context.Context, cfg config) (*report, error) { return runGrid(ctx, cfg, cheapGrid) }},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			cfg := base
			cfg.Workload = r.name
			rep, err := r.run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Wrong != 0 || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d, wrong %d: %v", rep.Attempted, rep.Failed, rep.Wrong, rep.Details)
			}
			for _, traced := range []bool{false, true} {
				cfg.Trace = traced
				var buf bytes.Buffer
				if err := emit(&buf, cfg, rep); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if !res.Correct || len(res.Metrics) != len(want) {
					t.Fatalf("trace=%v: correct %v with %d metrics, want %d", traced, res.Correct, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					switch {
					case !ok || got.Unit != m.unit:
						t.Errorf("trace=%v: metric %s missing or unit %q", traced, m.name, got.Unit)
					case !traced && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
			}
		})
	}
}

// The zoo-batch table names sizes the registry must still accept.
func TestGridSizesExist(t *testing.T) {
	for _, c := range zooGrid {
		if _, err := zoo.Build(c.entry, c.size); err != nil {
			t.Error(err)
		}
	}
}
