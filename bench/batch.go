package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/zoo"
)

// zoo-batch: one client submits the zoo grid to an icid with two
// workers, the result cache off and no store, as portfolio batches, and
// follows each batch's multiplexed event stream to EOF. It runs the
// batch lifecycle, the worker pool, the escalation ladder and the
// stream fan-out, and no cache tier at all.

// batchPolicy is the escalation ladder: FD and PDR under the slice
// budget, then XICI under the member's full budget.
var batchPolicy = []string{"FD", "PDR", "XICI"}

const (
	batchSliceNodes = 50_000
	batchWorkers    = 2
	// batchHeavy is how many cells lead the grid and keep their order in
	// every batch: which of them run side by side on the two workers sets
	// the batch's latency and icid's peak memory, so only the cheap cells
	// after them are shuffled.
	batchHeavy = 7
)

// gridCell is one zoo entry at one size and the answer its portfolio
// run must give: the verdict, the rung that settles it, and that rung's
// iteration count.
type gridCell struct {
	entry      string
	size       zoo.Size
	outcome    string
	engine     string
	iterations int
}

// zooGrid is every registry entry at each of its sizes whose XICI run
// decides within 1M nodes and 10 s: the first seven need all three
// rungs, the rest are settled by FD within the slice. The fsm machines
// light, turnstile and worker are violated by design. Every batch is
// the whole grid, so batch latencies are samples of one distribution
// and their percentiles are steady.
var zooGrid = []gridCell{
	{"network", zoo.Size{"procs": 8}, "verified", "XICI", 1},
	{"filter", zoo.Size{"depth": 8, "width": 8, "assist": 1}, "verified", "XICI", 1},
	{"pipeline", zoo.Size{"regs": 2, "width": 2, "assist": 1}, "verified", "XICI", 3},
	{"fifo", zoo.Size{"width": 8, "depth": 10}, "verified", "XICI", 1},
	{"network", zoo.Size{"procs": 4}, "verified", "XICI", 1},
	{"filter", zoo.Size{"depth": 4, "width": 8, "assist": 1}, "verified", "XICI", 1},
	{"link", zoo.Size{"data-bits": 4}, "verified", "XICI", 4},
	{"pipeline", zoo.Size{"regs": 2, "width": 1}, "verified", "FD", 5},
	{"coherence", zoo.Size{"caches": 6}, "verified", "FD", 7},
	{"elevator", zoo.Size{"floors": 8}, "verified", "FD", 11},
	{"link", zoo.Size{"data-bits": 2}, "verified", "FD", 14},
	{"fifo", zoo.Size{"width": 8, "depth": 5}, "verified", "FD", 6},
	{"protostack", zoo.Size{"layers": 6}, "verified", "FD", 29},
	{"coherence", zoo.Size{"caches": 4}, "verified", "FD", 5},
	{"network", zoo.Size{"procs": 2}, "verified", "FD", 7},
	{"link", zoo.Size{"data-bits": 1}, "verified", "FD", 14},
	{"elevator", zoo.Size{"floors": 5}, "verified", "FD", 8},
	{"coherence", zoo.Size{"caches": 2}, "verified", "FD", 3},
	{"protostack", zoo.Size{"layers": 4}, "verified", "FD", 16},
	{"elevator", zoo.Size{"floors": 3}, "verified", "FD", 6},
	{"traffic", zoo.Size{"roads": 4}, "verified", "FD", 12},
	{"traffic", zoo.Size{"roads": 3}, "verified", "FD", 9},
	{"protostack", zoo.Size{"layers": 2}, "verified", "FD", 7},
	{"traffic", zoo.Size{"roads": 2}, "verified", "FD", 6},
	{"fifo", zoo.Size{"width": 3, "depth": 2, "bound": 5}, "verified", "FD", 3},
	{"filter", zoo.Size{"depth": 2, "width": 1}, "verified", "FD", 4},
	{"fsm/door", nil, "verified", "FD", 2},
	{"fsm/lift", nil, "verified", "FD", 3},
	{"fsm/light", nil, "violated", "FD", 2},
	{"fsm/turnstile", nil, "violated", "FD", 1},
	{"fsm/worker", nil, "violated", "FD", 2},
}

// gridBatch is the POST /batches body that submits the whole grid as
// one batch.
func gridBatch(grid []gridCell) []byte {
	req := batchRequest{
		Name:   "zoo-grid",
		Policy: batchPolicy,
		Slice:  budgetSpec{NodeLimit: batchSliceNodes},
	}
	for _, c := range grid {
		req.Jobs = append(req.Jobs, submitRequest{Builtin: c.entry, Params: c.size})
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return body
}

func runZooBatch(ctx context.Context, cfg config) (*report, error) {
	return runGrid(ctx, cfg, zooGrid)
}

// runGrid submits batches, each the whole grid with its cheap cells in
// an order drawn from the seed, until the next batch would end past
// cfg.Duration (at least one).
func runGrid(ctx context.Context, cfg config, grid []gridCell) (*report, error) {
	rep := newReport()
	rng := newRand(cfg.Seed)
	d, setup, err := startTimed(ctx, cfg, func() ([]string, error) {
		return []string{"-workers", fmt.Sprint(batchWorkers), "-cache", "-1"}, nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup)
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	rep.Spans = tr
	cpu0, _, err := serviceUsage(d)
	if err != nil {
		d.kill()
		return nil, err
	}

	probe, err := newMemProbe()
	if err != nil {
		d.kill()
		return nil, err
	}
	defer probe.close()

	var lat, scaled, probes, overhead []float64
	var engineMS, batchMS, scaledBatchMS float64
	attempts, escalations, rejected, peakLive, batches := 0, 0, 0, 0, 0
	var last time.Duration
	before := probe.read()
	probes = append(probes, before)
	start := time.Now()
	for batches == 0 || time.Since(start)+last <= cfg.Duration {
		if err := ctx.Err(); err != nil {
			d.kill()
			return nil, err
		}
		cells := append([]gridCell(nil), grid...)
		cheap := cells[min(batchHeavy, len(cells)):]
		rng.Shuffle(len(cheap), func(i, j int) { cheap[i], cheap[j] = cheap[j], cheap[i] })
		unit := fmt.Sprintf("batch%d", batches)
		t0 := time.Now()
		st, err := runBatch(ctx, d, gridBatch(cells))
		t1 := time.Now()
		after := probe.read()
		probes = append(probes, after)
		batches++
		last = t1.Sub(t0)
		rep.Attempted += len(cells)
		l := ms(last)
		s := scaledMS(l, before, after)
		before = after
		lat = append(lat, l)
		scaled = append(scaled, s)
		batchMS += l
		scaledBatchMS += s
		if err != nil {
			var he *httpError
			if errors.As(err, &he) && he.status == http.StatusServiceUnavailable {
				rejected++
			}
			rep.Failed += len(cells)
			rep.Details["error:"+unit] = err.Error()
			continue
		}
		var sum float64
		var runs []time.Duration
		for i, m := range st.Members {
			for _, a := range m.Attempts {
				attempts++
				sum += a.ElapsedMS
				peakLive = max(peakLive, a.PeakLiveNodes)
				runs = append(runs, time.Duration(a.ElapsedMS*float64(time.Millisecond)))
				if a.Escalated {
					escalations++
				}
			}
			if msg := checkMember(cells[i], m); msg != "" {
				rep.Failed++
				rep.Wrong++
				rep.Details[fmt.Sprintf("mismatch:%s/%s%v", unit, cells[i].entry, map[string]int(cells[i].size))] = msg
			}
		}
		engineMS += sum
		overhead = append(overhead, l-sum/batchWorkers)
		traceBatch(tr, unit, t0, t1, runs)
	}
	elapsed := time.Since(start)
	cpu1, rss, err := serviceUsage(d)
	if err != nil {
		d.kill()
		return nil, err
	}
	checkDrain(rep, d.stop())

	correct := float64(rep.Attempted - rep.Failed)
	rep.setTimes(correct/(batchMS/1000), correct/(scaledBatchMS/1000), lat, scaled, probes)
	rep.Details["latency_ms.p90"] = percentile(lat, 0.9)
	rep.Samples["latency_ms.p90"] = len(lat)
	rep.set("peak_rss_mb", rss)
	rep.set("peak_live_nodes", float64(peakLive))
	rep.set("server.overhead_ms.p50", percentile(overhead, 0.5))
	rep.set("server.cpu_ms_per_req", ratio((cpu1-cpu0)*1000, float64(rep.Attempted)))
	rep.set("server.rejected", float64(rejected))
	rep.set("server.attempts_per_member", ratio(float64(attempts), float64(rep.Attempted)))
	rep.set("server.escalations", float64(escalations)/float64(batches))
	rep.set("server.worker_busy_frac", ratio(engineMS, batchWorkers*batchMS))
	rep.set("trace.overhead_frac", tr.overhead(elapsed))
	rep.Samples["server.overhead_ms.p50"] = len(overhead)
	rep.Details["batches"] = batches
	rep.Details["grid_cells"] = len(grid)
	return rep, nil
}

// runBatch submits one batch, follows its stream to EOF, and reads its
// final status.
func runBatch(ctx context.Context, d *daemon, body []byte) (batchStatus, error) {
	var br batchResponse
	var st batchStatus
	if err := d.postJSON(ctx, "/batches", body, &br); err != nil {
		return st, err
	}
	if err := d.drainStream(ctx, "/batches/"+br.ID+"/events"); err != nil {
		return st, fmt.Errorf("following batch %s: %w", br.ID, err)
	}
	if err := d.getJSON(ctx, "/batches/"+br.ID, &st); err != nil {
		return st, err
	}
	if st.State != "done" || len(st.Members) != len(br.Jobs) {
		return st, fmt.Errorf("batch %s ended %q with %d of %d members", br.ID, st.State, len(st.Members), len(br.Jobs))
	}
	return st, nil
}

// checkMember compares a member's final status with the grid table.
func checkMember(c gridCell, m jobStatus) string {
	if m.State != "done" || m.Result == nil || len(m.Attempts) == 0 {
		return fmt.Sprintf("state %q error %q", m.State, m.Error)
	}
	last := m.Attempts[len(m.Attempts)-1]
	if m.Result.Outcome != c.outcome || last.Engine != c.engine || m.Result.Iterations != c.iterations {
		return fmt.Sprintf("got %s by %s in %d iterations, want %s by %s in %d",
			m.Result.Outcome, last.Engine, m.Result.Iterations, c.outcome, c.engine, c.iterations)
	}
	return ""
}

// traceBatch records a batch span with one engine span per attempt,
// laid out on batchWorkers lanes from the batch's start: icid reports
// how long each attempt ran, not when.
func traceBatch(tr *tracer, unit string, t0, t1 time.Time, runs []time.Duration) {
	if tr == nil {
		return
	}
	id := tr.add(0, "batch", unit, t0, t1)
	lanes := make([]time.Time, batchWorkers)
	for i := range lanes {
		lanes[i] = t0
	}
	for _, r := range runs {
		k := 0
		for i := range lanes {
			if lanes[i].Before(lanes[k]) {
				k = i
			}
		}
		tr.add(id, "engine", unit, lanes[k], lanes[k].Add(r))
		lanes[k] = lanes[k].Add(r)
	}
}
