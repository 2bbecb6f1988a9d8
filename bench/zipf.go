package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/bdd"
	"repro/internal/difftest"
	"repro/internal/lang"
	"repro/internal/resource"
	"repro/internal/verify"
	"repro/internal/zoo"
)

// icid-zipf: two closed-loop clients send POST /jobs with wait:true to
// an icid with two workers, the default 128-entry result cache, and a
// store in a fresh directory. Engine work per request is about a
// millisecond, so admission, canonicalization, instantiation, the
// queue, both cache tiers, store I/O and the wire dominate. The key set
// outgrows the cache, so all three tiers serve traffic.
const (
	zipfClients = 2
	zipfNewFrac = 0.3 // share of requests that carry a key not seen before
	zipfS       = 1.1 // Zipf exponent of the repeats, over first-seen order
	// zipfTextPerSecond sizes the pool of textual keys generated before
	// the clients start; it exceeds the new-key rate icid sustains on a
	// 2-CPU host (about 1000 requests/s, 30% of them new).
	zipfTextPerSecond = 350
	// zipfProbeEvery is how often the clients pause for a memory probe
	// reading; a reading takes about 10 ms.
	zipfProbeEvery = time.Second
)

var allEngines = []string{"XICI", "Fwd", "Bkwd", "ICI", "FD"}

// zipfBudget bounds every icid-zipf job, in icid and in process. Both
// bounds are deterministic, so a key that would exhaust is known when it
// is generated and is drawn again.
var zipfBudget = resource.Budget{NodeLimit: 1_000_000, MaxIterations: 1000}

// zooCell is a zoo model at one size and the engines it is sent with.
type zooCell struct {
	entry   string
	size    zoo.Size
	engines []string
}

// zipfZooCells are the builtin keys: each cell decides under each of its
// engines within 1M nodes and 50 ms in process on a 2-CPU host.
var zipfZooCells = []zooCell{
	{"coherence", zoo.Size{"caches": 2}, allEngines},
	{"coherence", zoo.Size{"caches": 4}, allEngines},
	{"coherence", zoo.Size{"caches": 6}, allEngines},
	{"elevator", zoo.Size{"floors": 3}, allEngines},
	{"elevator", zoo.Size{"floors": 5}, allEngines},
	{"elevator", zoo.Size{"floors": 8}, allEngines},
	{"fifo", zoo.Size{"width": 3, "depth": 2, "bound": 5}, allEngines},
	{"fifo", zoo.Size{"width": 8, "depth": 5}, allEngines},
	{"fifo", zoo.Size{"width": 8, "depth": 10}, []string{"XICI", "ICI"}},
	{"filter", zoo.Size{"depth": 2, "width": 1}, allEngines},
	{"filter", zoo.Size{"depth": 4, "width": 8, "assist": 1}, []string{"XICI", "Bkwd", "ICI"}},
	{"fsm/door", nil, allEngines},
	{"fsm/lift", nil, allEngines},
	{"fsm/light", nil, allEngines},
	{"fsm/turnstile", nil, allEngines},
	{"fsm/worker", nil, allEngines},
	{"link", zoo.Size{"data-bits": 1}, allEngines},
	{"link", zoo.Size{"data-bits": 2}, allEngines},
	{"link", zoo.Size{"data-bits": 4}, allEngines},
	{"network", zoo.Size{"procs": 2}, allEngines},
	{"network", zoo.Size{"procs": 4}, []string{"XICI", "Bkwd", "ICI", "FD"}},
	{"pipeline", zoo.Size{"regs": 2, "width": 1}, allEngines},
	{"protostack", zoo.Size{"layers": 2}, []string{"XICI", "Fwd", "Bkwd", "FD"}},
	{"protostack", zoo.Size{"layers": 4}, []string{"XICI", "Fwd", "Bkwd", "FD"}},
	{"protostack", zoo.Size{"layers": 6}, []string{"XICI", "Fwd", "Bkwd", "FD"}},
	{"traffic", zoo.Size{"roads": 2}, allEngines},
	{"traffic", zoo.Size{"roads": 3}, allEngines},
	{"traffic", zoo.Size{"roads": 4}, allEngines},
}

// zkey is one distinct request and its in-process reference answer.
type zkey struct {
	label string
	body  []byte // the POST /jobs body
	text  string // textual model source; "" for builtin keys
	want  answer
}

func resultAnswer(r verify.Result) answer {
	return answer{r.Outcome.String(), r.Iterations, r.PeakStateNodes, r.ViolationDepth, fmt.Sprint(r.PeakProfile)}
}

func zipfBody(req submitRequest) []byte {
	req.Budget = budgetSpec{NodeLimit: zipfBudget.NodeLimit, MaxIterations: zipfBudget.MaxIterations}
	req.Wait = true
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return b
}

// zooKeys builds every builtin key with its reference answer.
func zooKeys(ctx context.Context) ([]*zkey, error) {
	var out []*zkey
	for _, c := range zipfZooCells {
		mo, err := zoo.Build(c.entry, c.size)
		if err != nil {
			return nil, err
		}
		for _, eng := range c.engines {
			p, err := mo.Instantiate(bdd.New())
			if err != nil {
				return nil, err
			}
			res := verify.RunContext(ctx, p, verify.Method(eng), verify.Options{Budget: zipfBudget})
			label := fmt.Sprintf("%s%v/%s", c.entry, map[string]int(c.size), eng)
			if res.Outcome == verify.Exhausted {
				return nil, fmt.Errorf("zoo key %s does not decide: %s", label, res.Why)
			}
			out = append(out, &zkey{
				label: label,
				body:  zipfBody(submitRequest{Builtin: c.entry, Params: c.size, Engine: eng}),
				want:  resultAnswer(res),
			})
		}
	}
	return out, nil
}

// textKeys generates n distinct textual keys: random instances from
// difftest.RandomParams, formatted as model text and paired with a
// random engine. Pipeline mutations are narrowed to a 1-bit datapath,
// which keeps engine work near a millisecond; keys that exhaust the
// budget are drawn again.
func textKeys(ctx context.Context, rng *rand.Rand, n int) ([]*zkey, error) {
	seen := map[string]bool{}
	out := make([]*zkey, 0, n)
	for len(out) < n {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p := difftest.RandomParams(rng)
		if p.Kind == difftest.KindPipeline {
			p.Width = 1
		}
		eng := allEngines[rng.Intn(len(allEngines))]
		mo, err := difftest.BuildModel(p)
		if err != nil {
			return nil, err
		}
		text := mo.Format()
		if seen[eng+"\n"+text] {
			continue
		}
		seen[eng+"\n"+text] = true
		prob, err := lang.Parse(bdd.New(), text, mo.Name)
		if err != nil {
			return nil, fmt.Errorf("parsing generated model %s: %w", mo.Name, err)
		}
		res := verify.RunContext(ctx, prob, verify.Method(eng), verify.Options{Budget: zipfBudget})
		if res.Outcome == verify.Exhausted {
			continue
		}
		out = append(out, &zkey{
			label: mo.Name + "/" + eng,
			body:  zipfBody(submitRequest{Model: text, Engine: eng}),
			text:  text,
			want:  resultAnswer(res),
		})
	}
	return out, nil
}

// zipfStream is the seeded request sequence. A new key is a builtin
// (one draw in four, until the builtins run out) or the next textual
// key; a repeat is a Zipf draw over the keys seen so far, the oldest
// most likely. Clients take requests in sequence order, so the sequence
// does not depend on timing.
type zipfStream struct {
	mu        sync.Mutex
	rng       *rand.Rand
	seen      []*zkey
	zoo, text []*zkey
	shortfall int // new-key draws served as repeats because the pool ran dry
}

func (s *zipfStream) next() *zkey {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.seen) == 0 || s.rng.Float64() < zipfNewFrac {
		if k := s.fresh(); k != nil {
			s.seen = append(s.seen, k)
			return k
		}
		s.shortfall++
	}
	z := rand.NewZipf(s.rng, zipfS, 1, uint64(len(s.seen)-1))
	return s.seen[z.Uint64()]
}

func (s *zipfStream) fresh() *zkey {
	q := &s.text
	if (s.rng.Intn(4) == 0 && len(s.zoo) > 0) || len(s.text) == 0 {
		q = &s.zoo
	}
	if len(*q) == 0 {
		return nil
	}
	k := (*q)[0]
	*q = (*q)[1:]
	return k
}

// zipfSample is one request as the client saw it.
type zipfSample struct {
	key     *zkey
	start   time.Time
	latency time.Duration
	resp    submitResponse
	err     error
}

func runZipf(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	rng := newRand(cfg.Seed)
	zooK, err := zooKeys(ctx)
	if err != nil {
		return nil, err
	}
	rng.Shuffle(len(zooK), func(i, j int) { zooK[i], zooK[j] = zooK[j], zooK[i] })
	textK, err := textKeys(ctx, rng, int(zipfTextPerSecond*cfg.Duration.Seconds())+1)
	if err != nil {
		return nil, err
	}
	stream := &zipfStream{rng: rng, zoo: zooK, text: textK}

	var stores []string
	defer func() {
		for _, dir := range stores {
			os.RemoveAll(dir)
		}
	}()
	d, setup, err := startTimed(ctx, cfg, func() ([]string, error) {
		dir, err := os.MkdirTemp(cfg.WorkDir, "icid-store-")
		stores = append(stores, dir)
		return []string{"-workers", "2", "-store", dir}, err
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

	m0, err := d.metrics(ctx)
	if err != nil {
		d.kill()
		return nil, err
	}
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

	// Every zipfProbeEvery the clients pause between requests, and the
	// probe reads while icid is idle. A request is scaled by the two
	// readings around it.
	var gate sync.RWMutex
	readings := []probeReading{{ms: probe.read()}}
	readings[0].at = time.Now()
	start := readings[0].at
	deadline := start.Add(cfg.Duration)
	rctx, cancel := context.WithDeadline(ctx, deadline.Add(time.Minute))
	defer cancel()
	stopProbe := make(chan struct{})
	var prober sync.WaitGroup
	prober.Add(1)
	go func() {
		defer prober.Done()
		tick := time.NewTicker(zipfProbeEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopProbe:
				return
			case <-tick.C:
			}
			gate.Lock()
			r := probe.read()
			readings = append(readings, probeReading{time.Now(), r})
			gate.Unlock()
		}
	}()
	perClient := make([][]zipfSample, zipfClients)
	var wg sync.WaitGroup
	for c := 0; c < zipfClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && rctx.Err() == nil {
				k := stream.next()
				var s zipfSample
				s.key = k
				gate.RLock()
				t0 := time.Now()
				s.err = d.postJSON(rctx, "/jobs", k.body, &s.resp)
				t1 := time.Now()
				gate.RUnlock()
				s.start, s.latency = t0, t1.Sub(t0)
				perClient[c] = append(perClient[c], s)
				traceRequest(tr, len(perClient[c]), c, t0, t1, s.resp)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopProbe)
	prober.Wait()
	readings = append(readings, probeReading{ms: probe.read()})
	readings[len(readings)-1].at = time.Now()
	m1, err := d.metrics(ctx)
	if err != nil {
		d.kill()
		return nil, err
	}
	cpu1, rss, err := serviceUsage(d)
	if err != nil {
		d.kill()
		return nil, err
	}
	drainErr := d.stop()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	checkDrain(rep, drainErr)

	var all []zipfSample
	for _, s := range perClient {
		all = append(all, s...)
	}
	served := map[*zkey]answer{}
	var lat, scaled, hit, miss, overhead []float64
	var engineMS float64
	rejected, peakLive := 0, 0
	for _, s := range all {
		rep.Attempted++
		lat = append(lat, ms(s.latency))
		k := bracket(readings, s.start)
		scaled = append(scaled, scaledMS(ms(s.latency), readings[k].ms, readings[k+1].ms))
		var he *httpError
		switch {
		case errors.As(s.err, &he) && he.status == http.StatusServiceUnavailable:
			rejected++
			rep.Failed++
			continue
		case s.err != nil, s.resp.Status == nil, s.resp.Status.Result == nil:
			rep.Failed++
			rep.Details["error:"+s.key.label] = fmt.Sprint(s.err)
			continue
		}
		r := s.resp.Status.Result
		got := wireAnswer(r)
		first, ok := served[s.key]
		if !ok {
			served[s.key], first = got, got
		}
		if got != s.key.want || got != first {
			rep.Failed++
			rep.Wrong++
			rep.Details["mismatch:"+s.key.label] = fmt.Sprintf("served %+v, reference %+v", got, s.key.want)
			continue
		}
		if r.Outcome == "exhausted" {
			rep.Failed++
			continue
		}
		if s.key.text == "" {
			peakLive = max(peakLive, r.PeakLiveNodes)
		}
		if s.resp.Cached {
			hit = append(hit, ms(s.latency))
		} else {
			miss = append(miss, ms(s.latency))
			overhead = append(overhead, ms(s.latency)-r.ElapsedMS)
			engineMS += r.ElapsedMS
		}
	}

	var canon []float64
	for k := range served {
		if k.text == "" {
			continue
		}
		t0 := time.Now()
		if _, err := lang.Canon(k.text); err != nil {
			return nil, fmt.Errorf("canonicalizing %s: %w", k.label, err)
		}
		canon = append(canon, float64(time.Since(t0).Nanoseconds())/1e3)
	}

	n := float64(len(all))
	probes := make([]float64, len(readings))
	for i, r := range readings {
		probes[i] = r.ms
	}
	correct := float64(rep.Attempted - rep.Failed)
	rep.setTimes(correct/elapsed.Seconds(), correct/(scaledSpanMS(readings, start, start.Add(elapsed))/1000), lat, scaled, probes)
	rep.Details["latency_ms.p99"] = percentile(lat, 0.99)
	rep.Samples["latency_ms.p99"] = len(lat)
	rep.set("peak_rss_mb", rss)
	rep.set("peak_live_nodes", float64(peakLive))
	rep.set("lang.canon_us.p50", percentile(canon, 0.5))
	rep.set("server.hit_ms.p50", percentile(hit, 0.5))
	rep.set("server.miss_ms.p50", percentile(miss, 0.5))
	rep.set("server.miss_ms.p99", percentile(miss, 0.99))
	rep.set("server.overhead_ms.p50", percentile(overhead, 0.5))
	// Tier shares are per request: icid counts a miss twice, once at
	// submission and once when the worker looks again before running.
	memHits := float64(m1.CacheMemoryHits - m0.CacheMemoryHits)
	storeHits := float64(m1.CacheStoreHits - m0.CacheStoreHits)
	rep.set("server.cache_memory_frac", ratio(memHits, n))
	rep.set("server.cache_store_frac", ratio(storeHits, n))
	rep.set("server.cache_miss_frac", ratio(n-memHits-storeHits, n))
	rep.set("server.cache_evictions", float64(m1.CacheEvictions-m0.CacheEvictions))
	rep.set("server.cpu_ms_per_req", ratio((cpu1-cpu0)*1000, n))
	rep.set("server.rejected", float64(rejected))
	rep.set("server.worker_busy_frac", engineMS/(2*ms(elapsed)))
	if m0.Store != nil && m1.Store != nil {
		rep.set("store.puts", float64(m1.Store.Puts-m0.Store.Puts))
		rep.set("store.gets", float64(m1.Store.Gets-m0.Store.Gets))
		rep.set("store.get_misses", float64(m1.Store.GetMisses-m0.Store.GetMisses))
		rep.set("store.bytes", float64(m1.Store.Bytes))
	}
	rep.set("trace.overhead_frac", tr.overhead(zipfClients*elapsed))
	rep.Samples["server.hit_ms.p50"] = len(hit)
	rep.Samples["server.miss_ms.p50"] = len(miss)
	rep.Samples["server.miss_ms.p99"] = len(miss)
	rep.Samples["server.overhead_ms.p50"] = len(overhead)
	rep.Samples["lang.canon_us.p50"] = len(canon)
	rep.Details["peak_live_nodes"] = "max over builtin keys"
	rep.Details["distinct_keys"] = len(served)
	rep.Details["builtin_keys"] = len(zooK)
	rep.Details["text_keys_generated"] = len(textK)
	rep.Details["new_key_shortfall"] = stream.shortfall
	return rep, nil
}

// traceRequest records a request span and, for a run that executed, an
// engine child span of the run's elapsed time. icid does not report when
// the run started, so the child is placed at the end of the request.
func traceRequest(tr *tracer, seq, client int, t0, t1 time.Time, resp submitResponse) {
	if tr == nil {
		return
	}
	unit := fmt.Sprintf("c%d/%d", client, seq)
	id := tr.add(0, "request", unit, t0, t1)
	if resp.Cached || resp.Status == nil || resp.Status.Result == nil {
		return
	}
	run := time.Duration(resp.Status.Result.ElapsedMS * float64(time.Millisecond))
	tr.add(id, "engine", unit, t1.Add(-run), t1)
}
