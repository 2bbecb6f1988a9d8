package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bdd"
	"repro/internal/models"
	"repro/internal/verify"
	"repro/internal/zoo"
)

// testServer pairs a Server with its httptest front end and shuts both
// down at cleanup.
type testServer struct {
	srv *Server
	ts  *httptest.Server
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return &testServer{srv: s, ts: ts}
}

func (e *testServer) post(t *testing.T, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(e.ts.URL+"/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

func (e *testServer) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(e.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

// submit POSTs a request and returns the job id.
func (e *testServer) submit(t *testing.T, req SubmitRequest) string {
	t.Helper()
	resp, data := e.post(t, req)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("submit response: %v (%s)", err, data)
	}
	return sr.ID
}

// waitDone polls a job until it is terminal.
func (e *testServer) waitDone(t *testing.T, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := e.get(t, "/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s: %d %s", id, resp.StatusCode, data)
		}
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateError {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// counterModel builds a textual n-bit binary counter with a trivially
// true property: forward reachability needs 2^n image steps to
// converge, so at moderate n the job runs "forever" on the test's
// timescale while every single iteration stays cheap — the ideal
// cancellation target.
func counterModel(bits int) string {
	var b strings.Builder
	for i := 0; i < bits; i++ {
		carry := "true"
		if i > 0 {
			parts := make([]string, i)
			for k := 0; k < i; k++ {
				parts[k] = fmt.Sprintf("b%d", k)
			}
			carry = "(and " + strings.Join(parts, " ") + ")"
		}
		fmt.Fprintf(&b, "(state b%d :init 0 :next (xor b%d %s))\n", i, i, carry)
	}
	b.WriteString("(good true)\n")
	return b.String()
}

// metricsDoc fetches and parses /metrics.
func (e *testServer) metricsDoc(t *testing.T) map[string]any {
	t.Helper()
	resp, data := e.get(t, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("/metrics not JSON: %v (%s)", err, data)
	}
	return doc
}

func metricInt(t *testing.T, doc map[string]any, key string) int {
	t.Helper()
	v, ok := doc[key].(float64)
	if !ok {
		t.Fatalf("metric %q missing or not a number: %v", key, doc[key])
	}
	return int(v)
}

// The satellite acceptance test: all five example models submitted
// simultaneously, each verdict identical to a direct library run, and
// the /metrics counters summing correctly. Run under -race in CI.
func TestConcurrentFiveModels(t *testing.T) {
	type caseSpec struct {
		req    SubmitRequest
		direct func(m *bdd.Manager) verify.Problem
	}
	cases := []caseSpec{
		{
			req: SubmitRequest{Builtin: "fifo", Params: map[string]int{"depth": 3}, Engine: "XICI"},
			direct: func(m *bdd.Manager) verify.Problem {
				return models.BuildFIFO(models.DefaultFIFO(3)).MustInstantiate(m)
			},
		},
		{
			req: SubmitRequest{Builtin: "network", Params: map[string]int{"procs": 2}, Engine: "FD"},
			direct: func(m *bdd.Manager) verify.Problem {
				return models.BuildNetwork(models.NetworkConfig{Procs: 2}).MustInstantiate(m)
			},
		},
		{
			req: SubmitRequest{Builtin: "filter", Params: map[string]int{"depth": 4, "assist": 1}, Engine: "ICI"},
			direct: func(m *bdd.Manager) verify.Problem {
				return models.BuildFilter(models.DefaultFilter(4, true)).MustInstantiate(m)
			},
		},
		{
			req: SubmitRequest{Builtin: "pipeline", Params: map[string]int{"regs": 2, "width": 1}, Engine: "XICI"},
			direct: func(m *bdd.Manager) verify.Problem {
				return models.BuildPipeline(models.DefaultPipeline(2, 1)).MustInstantiate(m)
			},
		},
		{
			req: SubmitRequest{Builtin: "link", Params: map[string]int{"data-bits": 1, "bug": 1}, Engine: "Bkwd",
				Options: OptionsSpec{WantTrace: true}},
			direct: func(m *bdd.Manager) verify.Problem {
				return models.BuildLink(models.LinkConfig{DataBits: 1, Bug: true}).MustInstantiate(m)
			},
		},
	}

	e := newTestServer(t, Config{Workers: 4, QueueCap: 16})

	// Submit all five at once.
	ids := make([]string, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func(i int, c caseSpec) {
			defer wg.Done()
			ids[i] = e.submit(t, c.req)
		}(i, c)
	}
	wg.Wait()

	for i, c := range cases {
		st := e.waitDone(t, ids[i])
		if st.State != StateDone || st.Result == nil {
			t.Fatalf("%s: state %q error %q", c.req.Builtin, st.State, st.Error)
		}

		// The direct library run on a private manager, same options.
		m := bdd.New()
		p := c.direct(m)
		opt, err := c.req.Options.options()
		if err != nil {
			t.Fatal(err)
		}
		ref := verify.Run(p, verify.Method(c.req.Engine), opt)

		if st.Result.Outcome != ref.Outcome.String() {
			t.Errorf("%s: server verdict %q, direct run %q (%s)",
				c.req.Builtin, st.Result.Outcome, ref.Outcome, st.Result.Why)
		}
		if st.Result.Iterations != ref.Iterations {
			t.Errorf("%s: server iterations %d, direct %d", c.req.Builtin, st.Result.Iterations, ref.Iterations)
		}
		if ref.Outcome == verify.Violated && st.Result.ViolationDepth != ref.ViolationDepth {
			t.Errorf("%s: server depth %d, direct %d", c.req.Builtin, st.Result.ViolationDepth, ref.ViolationDepth)
		}
		if c.req.Options.WantTrace && ref.Outcome == verify.Violated && st.Result.Trace == "" {
			t.Errorf("%s: trace requested but absent from the wire result", c.req.Builtin)
		}
		if st.Result.Method != c.req.Engine {
			t.Errorf("%s: wire method %q", c.req.Builtin, st.Result.Method)
		}
	}

	// Counter arithmetic, after quiescence.
	doc := e.metricsDoc(t)
	submitted := metricInt(t, doc, "submitted")
	completed := metricInt(t, doc, "completed")
	queued := metricInt(t, doc, "queued")
	running := metricInt(t, doc, "running")
	errs := metricInt(t, doc, "errors")
	verified := metricInt(t, doc, "verified")
	violated := metricInt(t, doc, "violated")
	exhausted := metricInt(t, doc, "exhausted")
	if submitted != len(cases) {
		t.Errorf("submitted = %d, want %d", submitted, len(cases))
	}
	if completed != len(cases) || queued != 0 || running != 0 || errs != 0 {
		t.Errorf("completed=%d queued=%d running=%d errors=%d, want %d/0/0/0",
			completed, queued, running, errs, len(cases))
	}
	if submitted != queued+running+completed+errs {
		t.Errorf("submitted (%d) != queued+running+completed+errors (%d)",
			submitted, queued+running+completed+errs)
	}
	if verified+violated+exhausted != completed {
		t.Errorf("outcomes %d+%d+%d don't sum to completed %d", verified, violated, exhausted, completed)
	}
	if violated != 1 {
		t.Errorf("violated = %d, want 1 (the bugged link)", violated)
	}
	engines, ok := doc["engines"].(map[string]any)
	if !ok {
		t.Fatalf("engines metric missing: %v", doc["engines"])
	}
	perEngine := 0
	for _, v := range engines {
		perEngine += int(v.(float64))
	}
	if perEngine != completed {
		t.Errorf("per-engine totals sum to %d, want %d", perEngine, completed)
	}
}

// The event stream must carry the run's engine events flattened as
// NDJSON, bracketed by lifecycle lines, ending in the "done" line.
func TestEventStreamFollowsToDone(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1})
	id := e.submit(t, SubmitRequest{Builtin: "fifo", Params: map[string]int{"depth": 3}, Engine: "XICI"})

	resp, err := http.Get(e.ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var kinds []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		kind, _ := line["event"].(string)
		kinds = append(kinds, kind)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(kinds) < 3 {
		t.Fatalf("stream too short: %v", kinds)
	}
	if kinds[0] != "status" {
		t.Errorf("first line %q, want status", kinds[0])
	}
	if kinds[len(kinds)-1] != "done" {
		t.Errorf("last line %q, want done", kinds[len(kinds)-1])
	}
	sawIteration := false
	for _, k := range kinds {
		if k == verify.EventIteration {
			sawIteration = true
		}
	}
	if !sawIteration {
		t.Errorf("no iteration events in stream: %v", kinds)
	}

	// The job status agrees with the stream length.
	st := e.waitDone(t, id)
	if st.Events != len(kinds) {
		t.Errorf("status.events = %d, stream had %d lines", st.Events, len(kinds))
	}
}

// A wait-mode client hanging up must cancel its job server-side: the
// terminal status shows exhaustion with the cancellation cause (the
// resource.CancelError path through the budget).
func TestClientDisconnectCancelsJob(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1})

	body, _ := json.Marshal(SubmitRequest{
		Model:  counterModel(18),
		Name:   "counter",
		Engine: "Fwd",
		Wait:   true,
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", e.ts.URL+"/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")

	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()

	// Wait until the job is actually running, then hang up.
	var id string
	deadline := time.Now().Add(30 * time.Second)
	for id == "" && time.Now().Before(deadline) {
		_, data := e.get(t, "/jobs")
		var list []JobStatus
		if err := json.Unmarshal(data, &list); err == nil {
			for _, st := range list {
				if st.State == StateRunning {
					id = st.ID
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if id == "" {
		t.Fatal("job never reached the running state")
	}
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("expected the canceled request to error")
	}

	st := e.waitDone(t, id)
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("state %q error %q", st.State, st.Error)
	}
	if st.Result.Outcome != verify.Exhausted.String() || st.Result.Cause != "canceled" {
		t.Fatalf("outcome %q cause %q, want exhausted/canceled", st.Result.Outcome, st.Result.Cause)
	}
}

// DELETE /jobs/{id} cancels a running job and finalizes a queued one
// without running it.
func TestDeleteCancelsRunningAndQueued(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	long := SubmitRequest{Model: counterModel(18), Name: "counter", Engine: "Fwd"}
	runningID := e.submit(t, long)
	queuedID := e.submit(t, long)

	// Wait for the first to start running, then cancel both.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, data := e.get(t, "/jobs/"+runningID)
		var st JobStatus
		json.Unmarshal(data, &st)
		if st.State == StateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range []string{runningID, queuedID} {
		req, _ := http.NewRequest("DELETE", e.ts.URL+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	for _, id := range []string{runningID, queuedID} {
		st := e.waitDone(t, id)
		if st.Result == nil || st.Result.Cause != "canceled" {
			t.Fatalf("job %s: %+v, want canceled cause", id, st.Result)
		}
	}
	doc := e.metricsDoc(t)
	if got := metricInt(t, doc, "cancelled"); got != 2 {
		t.Errorf("cancelled = %d, want 2", got)
	}
}

// Shutdown must stop intake, finish what it can inside the drain
// window, budget-cancel the rest, and leave every job terminal with its
// final event line in place.
func TestShutdownDrainsWithoutLosingFinalEvents(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	quick := e.submit(t, SubmitRequest{Builtin: "fifo", Params: map[string]int{"depth": 3}, Engine: "XICI"})
	long := e.submit(t, SubmitRequest{Model: counterModel(18), Name: "counter", Engine: "Fwd"})

	// A short drain window: the quick job (first in the single worker's
	// order) finishes, the counter gets budget-canceled.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)

	// Intake is closed.
	resp, _ := e.post(t, SubmitRequest{Builtin: "fifo", Params: map[string]int{"depth": 3}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: %d, want 503", resp.StatusCode)
	}

	qs := e.waitDone(t, quick)
	if qs.State != StateDone || qs.Result == nil || qs.Result.Outcome != verify.Verified.String() {
		t.Fatalf("quick job: %+v", qs.Result)
	}
	ls := e.waitDone(t, long)
	if ls.State != StateDone || ls.Result == nil || ls.Result.Outcome != verify.Exhausted.String() {
		t.Fatalf("long job: %+v", ls.Result)
	}
	if err == nil && ls.Result.Cause == "canceled" {
		t.Fatalf("drain reported clean but the counter was canceled")
	}

	// Both event streams end with the final "done" line — nothing lost.
	for _, id := range []string{quick, long} {
		resp, data := e.get(t, "/jobs/"+id+"/events?follow=0")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events %s: %d", id, resp.StatusCode)
		}
		lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
		var last map[string]any
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
			t.Fatal(err)
		}
		if last["event"] != "done" {
			t.Fatalf("job %s: last stream line %v, want the done marker", id, last)
		}
	}
}

// Identical submissions are answered from the content-addressed cache:
// instant completion, replayed engine events, a cache_hits tick — and a
// changed option or budget must miss.
func TestResultCache(t *testing.T) {
	e := newTestServer(t, Config{Workers: 2})
	req := SubmitRequest{Builtin: "fifo", Params: map[string]int{"depth": 3}, Engine: "XICI"}

	first := e.submit(t, req)
	st1 := e.waitDone(t, first)
	if st1.Result == nil || st1.Result.Outcome != verify.Verified.String() {
		t.Fatalf("first run: %+v", st1.Result)
	}

	resp, data := e.post(t, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached submit: %d %s", resp.StatusCode, data)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Cached || sr.Status == nil || sr.Status.State != StateDone {
		t.Fatalf("second submit not served from cache: %s", data)
	}
	if sr.Status.Result.Iterations != st1.Result.Iterations {
		t.Fatalf("cached result diverges: %d vs %d iterations",
			sr.Status.Result.Iterations, st1.Result.Iterations)
	}
	// The cached job replays the engine events plus its own "done" line;
	// it never ran, so the original's "status running" line is the one
	// it lacks.
	_, edata := e.get(t, "/jobs/"+sr.ID+"/events?follow=0")
	cachedLines := bytes.Split(bytes.TrimSpace(edata), []byte("\n"))
	if len(cachedLines) != st1.Events-1 {
		t.Errorf("cached stream has %d lines, original had %d", len(cachedLines), st1.Events)
	}

	// Same model, different options → a real run, not a cache hit.
	req2 := req
	req2.Options.Termination = "fast"
	third := e.submit(t, req2)
	st3 := e.waitDone(t, third)
	if st3.Cached {
		t.Fatal("option change still hit the cache")
	}
	if st3.Result.Outcome != st1.Result.Outcome {
		t.Fatalf("termination-mode change flipped the verdict: %q vs %q", st3.Result.Outcome, st1.Result.Outcome)
	}

	doc := e.metricsDoc(t)
	if got := metricInt(t, doc, "cache_hits"); got != 1 {
		t.Errorf("cache_hits = %d, want 1", got)
	}
	if got := metricInt(t, doc, "completed"); got != 3 {
		t.Errorf("completed = %d, want 3 (cache hits complete too)", got)
	}
}

// A builtin submission and a textual submission of the equivalent model
// must share one content-addressed cache entry: the builtin is lowered
// to canonical text at submission, so the service does the work once.
func TestCacheSharedBetweenTextAndBuiltin(t *testing.T) {
	e := newTestServer(t, Config{Workers: 2})

	first := e.submit(t, SubmitRequest{Builtin: "fifo", Params: map[string]int{"depth": 3}, Engine: "XICI"})
	st1 := e.waitDone(t, first)
	if st1.Result == nil || st1.Result.Outcome != verify.Verified.String() {
		t.Fatalf("builtin run: %+v", st1.Result)
	}

	// The equivalent model as text: the same zoo entry serialized to
	// its canonical form — exactly what a Go client or the golden files
	// hold.
	mo, err := zoo.Build("fifo", zoo.Size{"depth": 3})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := e.post(t, SubmitRequest{Model: mo.Format(), Engine: "XICI"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text submit: %d %s", resp.StatusCode, data)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Cached {
		t.Fatal("textual submission of the equivalent model missed the builtin's cache entry")
	}

	// And the new params surface hits the same entry as the legacy knob.
	resp, data = e.post(t, SubmitRequest{Builtin: "fifo", Params: map[string]int{"depth": 3}, Engine: "XICI"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("params submit: %d %s", resp.StatusCode, data)
	}
	sr = SubmitResponse{}
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Cached {
		t.Fatal("params submission of the same size missed the cache")
	}

	e.srv.mu.Lock()
	entries := e.srv.cache.len()
	e.srv.mu.Unlock()
	if entries != 1 {
		t.Fatalf("cache holds %d entries for one piece of work, want 1", entries)
	}
}

// The zoo additions are servable builtins: a parameterized family via
// "params" and an imported .fsm machine, with the resubmission answered
// from the cache.
func TestZooBuiltinsServe(t *testing.T) {
	e := newTestServer(t, Config{Workers: 2})

	id := e.submit(t, SubmitRequest{Builtin: "elevator", Params: map[string]int{"floors": 3}, Engine: "XICI"})
	st := e.waitDone(t, id)
	if st.Result == nil || st.Result.Outcome != verify.Verified.String() {
		t.Fatalf("elevator: %+v (err %q)", st.Result, st.Error)
	}

	fsmReq := SubmitRequest{Builtin: "fsm/door", Engine: "XICI"}
	id = e.submit(t, fsmReq)
	st = e.waitDone(t, id)
	if st.Result == nil || st.Result.Outcome != verify.Verified.String() {
		t.Fatalf("fsm/door: %+v (err %q)", st.Result, st.Error)
	}
	if st.Name != "fsm/door" {
		t.Errorf("job name %q, want the builtin name", st.Name)
	}
	resp, data := e.post(t, fsmReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, data)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Cached || sr.Status == nil || sr.Status.Result == nil ||
		sr.Status.Result.Outcome != verify.Verified.String() {
		t.Fatalf("fsm/door resubmission not served from cache: %s", data)
	}

	// Parameter validation stays a 400: an unknown param.
	resp, _ = e.post(t, SubmitRequest{Builtin: "elevator", Params: map[string]int{"storeys": 3}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown param: %d, want 400", resp.StatusCode)
	}
}

// GET /models lists the zoo registry.
func TestModelsEndpoint(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1})
	resp, data := e.get(t, "/models")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/models: %d %s", resp.StatusCode, data)
	}
	var infos []ModelInfo
	if err := json.Unmarshal(data, &infos); err != nil {
		t.Fatalf("/models not JSON: %v", err)
	}
	if len(infos) < 10 {
		t.Fatalf("/models lists %d entries, want >= 10", len(infos))
	}
	byName := map[string]ModelInfo{}
	for _, mi := range infos {
		byName[mi.Name] = mi
	}
	if _, ok := byName["fsm/turnstile"]; !ok {
		t.Error("imported fsm/turnstile missing from /models")
	}
	if mi, ok := byName["elevator"]; !ok || mi.Defaults["floors"] == 0 || mi.Desc == "" {
		t.Errorf("elevator entry incomplete: %+v", mi)
	}
}

// A bare builtin runs the defaults GET /models advertises: it gets the
// model identity of the submission that sets each of them explicitly.
func TestBareBuiltinRunsModelsDefaults(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1})
	_, data := e.get(t, "/models")
	var infos []ModelInfo
	if err := json.Unmarshal(data, &infos); err != nil {
		t.Fatalf("/models not JSON: %v", err)
	}
	if len(infos) != len(zoo.Names()) {
		t.Fatalf("/models lists %d entries, the zoo %d", len(infos), len(zoo.Names()))
	}
	for _, mi := range infos {
		bare, err := normalizeModel(&SubmitRequest{Builtin: mi.Name})
		if err != nil {
			t.Fatalf("%s: %v", mi.Name, err)
		}
		explicit, err := normalizeModel(&SubmitRequest{Builtin: mi.Name, Params: mi.Defaults})
		if err != nil {
			t.Fatalf("%s with its defaults: %v", mi.Name, err)
		}
		if bare != explicit {
			t.Errorf("%s: a bare submission does not build the model of its /models defaults %v",
				mi.Name, mi.Defaults)
		}
	}
}

// A full queue rejects with 503 and rolls the submission back out of
// the metrics.
func TestQueueFullRejects(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	long := SubmitRequest{Model: counterModel(18), Name: "counter", Engine: "Fwd"}
	a := e.submit(t, long) // runs
	// Make sure the worker picked up the first job so the queue slot is
	// truly the only capacity left.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, data := e.get(t, "/jobs/"+a)
		var st JobStatus
		json.Unmarshal(data, &st)
		if st.State == StateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	b := e.submit(t, long) // queues
	resp, data := e.post(t, long)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third submit: %d %s, want 503", resp.StatusCode, data)
	}
	doc := e.metricsDoc(t)
	if got := metricInt(t, doc, "submitted"); got != 2 {
		t.Errorf("submitted = %d after rollback, want 2", got)
	}
	// Clean up the long jobs so shutdown stays fast.
	for _, id := range []string{a, b} {
		req, _ := http.NewRequest("DELETE", e.ts.URL+"/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	e.waitDone(t, a)
	e.waitDone(t, b)
}

// Submission validation: every malformed request is a 400/404 with an
// error body, before any job is created.
func TestSubmitValidation(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty", `{}`, http.StatusBadRequest},
		{"both-model-and-builtin", `{"model":"(good true)","builtin":"fifo"}`, http.StatusBadRequest},
		{"unknown-builtin", `{"builtin":"turbofifo"}`, http.StatusBadRequest},
		{"bad-size", `{"builtin":"filter","params":{"depth":3}}`, http.StatusBadRequest},
		{"removed-size", `{"builtin":"fifo","size":4}`, http.StatusBadRequest},
		{"removed-regs", `{"builtin":"pipeline","regs":2}`, http.StatusBadRequest},
		{"removed-bits", `{"builtin":"pipeline","bits":2}`, http.StatusBadRequest},
		{"removed-assist", `{"builtin":"filter","assist":true}`, http.StatusBadRequest},
		{"removed-bug", `{"builtin":"fifo","bug":true}`, http.StatusBadRequest},
		{"params-on-model", `{"model":"(state s :init 0 :next (not s))\n(good true)","params":{"depth":3}}`, http.StatusBadRequest},
		{"model-syntax", `{"model":"(state x"}`, http.StatusBadRequest},
		{"model-semantics", `{"model":"(state s :init 0 :next q)\n(good true)"}`, http.StatusBadRequest},
		{"unknown-engine", `{"builtin":"fifo","engine":"Magic"}`, http.StatusBadRequest},
		{"bad-termination", `{"builtin":"fifo","options":{"termination":"psychic"}}`, http.StatusBadRequest},
		{"unknown-field", `{"builtin":"fifo","frobnicate":1}`, http.StatusBadRequest},
		{"bad-budget", `{"builtin":"fifo","budget":{"node_limit":-7}}`, http.StatusBadRequest},
		{"bad-workers", `{"builtin":"fifo","options":{"workers":-2}}`, http.StatusBadRequest},
		{"removed-workers", `{"builtin":"fifo","options":{"workers":2}}`, http.StatusBadRequest},
		{"bad-gc-every", `{"builtin":"fifo","options":{"gc_every":-1}}`, http.StatusBadRequest},
		{"bad-grow-threshold", `{"builtin":"fifo","options":{"grow_threshold":-0.5}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(e.ts.URL+"/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, data, c.want)
		}
		var er ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q", c.name, data)
		}
		// A removed flat knob is named in the error, not ignored.
		if field, ok := strings.CutPrefix(c.name, "removed-"); ok &&
			!strings.Contains(er.Error, `unknown field "`+field+`"`) {
			t.Errorf("%s: error %q does not name the field", c.name, er.Error)
		}
	}
	if resp, _ := e.get(t, "/jobs/j999999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", resp.StatusCode)
	}
	if resp, _ := e.get(t, "/jobs/j999999/events"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job events: %d, want 404", resp.StatusCode)
	}
	doc := e.metricsDoc(t)
	if got := metricInt(t, doc, "submitted"); got != 0 {
		t.Errorf("rejected submissions counted: submitted = %d", got)
	}
}

// Budget enforcement happens server-side: a tiny node limit exhausts
// the job with the node-limit cause, and the daemon's clamp overrides a
// client asking for more than the configured maximum.
func TestServerSideBudgets(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1, MaxNodeLimit: 700})
	// Client asks for a huge node budget; the clamp forces 700, which a
	// size-5 FIFO under Bkwd overruns.
	id := e.submit(t, SubmitRequest{
		Builtin: "fifo", Params: map[string]int{"depth": 5}, Engine: "Bkwd",
		Budget: BudgetSpec{NodeLimit: 1 << 30},
	})
	st := e.waitDone(t, id)
	if st.Result == nil || st.Result.Outcome != verify.Exhausted.String() || st.Result.Cause != "node-limit" {
		t.Fatalf("clamped run: %+v, want exhausted/node-limit", st.Result)
	}

	// Wait-mode healthz sanity while we're here.
	resp, data := e.get(t, "/healthz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, data)
	}
}

// Wait-mode submissions return the final status inline.
func TestWaitModeInlineResult(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1})
	resp, data := e.post(t, SubmitRequest{Builtin: "fifo", Params: map[string]int{"depth": 3}, Engine: "XICI", Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait submit: %d %s", resp.StatusCode, data)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Status == nil || sr.Status.State != StateDone || sr.Status.Result == nil {
		t.Fatalf("wait response lacks the final status: %s", data)
	}
	if sr.Status.Result.Outcome != verify.Verified.String() {
		t.Fatalf("outcome %q", sr.Status.Result.Outcome)
	}
}

// TestAttemptClosesItsManager: a job large enough to map its BDD tables
// (filter depth 8 peaks at about 182,000 nodes, a 4 MB node array) has
// given them back by the time it is terminal, as /metrics reports. The
// gauge is process-wide, so this test must not run in parallel, and it
// starts once every earlier test's dropped manager has been finalized.
func TestAttemptClosesItsManager(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1})
	start := -1
	for i := 0; i < 100; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		cur := metricInt(t, e.metricsDoc(t), "bdd_mapped_bytes")
		if cur == start {
			break
		}
		start = cur
	}

	id := e.submit(t, SubmitRequest{Builtin: "filter", Params: map[string]int{"depth": 8}, Engine: "XICI"})
	st := e.waitDone(t, id)
	if st.State != StateDone || st.Result == nil || st.Result.PeakLiveNodes*16 < 2<<20 {
		t.Fatalf("want a done job whose node array passed 2 MB, got %+v", st)
	}
	doc := e.metricsDoc(t)
	if got := metricInt(t, doc, "bdd_mapped_bytes"); got != start {
		t.Errorf("bdd_mapped_bytes %d once the job is terminal, %d before it", got, start)
	}
	if metricInt(t, doc, "go_heap_inuse_bytes") <= 0 {
		t.Errorf("go_heap_inuse_bytes: %v", doc["go_heap_inuse_bytes"])
	}
}
