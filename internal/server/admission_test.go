package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"
)

// Regression tests for the one admission path: resolve before routing,
// all-or-nothing admit, the job lifecycle's metric ordering, and the
// immutability of the cache entries admission and attempts read.

// The gauges settle before a job turns terminal: a hook running at the
// terminal transition, as the batch tally does, already reads
// submitted == queued + running + completed + errors, on the completed
// path and on the error path alike.
func TestGaugesSettledAtTerminalTransition(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1, CacheCap: -1}) // every job runs
	s := e.srv
	type gauges struct{ submitted, sum int64 }
	for _, c := range []struct {
		name  string
		model string // replaces the normalized model, to fail the run
	}{
		{"completed", ""},
		{"error", "(state x"},
	} {
		j, err := s.resolve(SubmitRequest{Builtin: "fifo", Params: map[string]int{"depth": 3}}, &BatchRequest{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.model != "" {
			j.req.Model = c.model
		}
		probe := make(chan gauges, 1)
		j.onDone = func() {
			m := s.met
			probe <- gauges{m.submitted.Value(), m.queued.Value() + m.running.Value() + m.completed.Value() + m.errors.Value()}
		}
		if err := s.admit(nil, j); err != nil {
			t.Fatal(err)
		}
		if g := <-probe; g.submitted != g.sum {
			t.Errorf("%s: at the terminal transition submitted = %d, queued+running+completed+errors = %d",
				c.name, g.submitted, g.sum)
		}
		if st := j.status(); (st.State == StateError) != (c.name == "error") {
			t.Errorf("%s: final state %q (%s)", c.name, st.State, st.Error)
		}
	}
}

// A cache entry handed out by get stays as it was when a later put
// stores a new result under the same key: readers use entries after the
// server mutex is released.
func TestCacheEntryKeepsResultAfterPut(t *testing.T) {
	c := newResultCache(2)
	first := &ResultWire{Outcome: "verified"}
	c.put("k", first, []json.RawMessage{json.RawMessage(`{"event":"iteration"}`)})
	held, ok := c.get("k")
	if !ok {
		t.Fatal("entry missing after put")
	}
	c.put("k", &ResultWire{Outcome: "violated"}, nil)
	if held.result != first || len(held.events) != 1 {
		t.Fatalf("held entry changed under a put of the same key: %+v, %d events", held.result, len(held.events))
	}
	if now, _ := c.get("k"); now.result.Outcome != "violated" {
		t.Fatalf("put did not replace the entry: %+v", now.result)
	}
	if c.len() != 1 {
		t.Fatalf("cache holds %d entries for one key", c.len())
	}
}

// Slice fields left at zero inherit the member's budget, not the
// daemon defaults: the first rung of a batch with a node-limited member
// budget and a time-only slice runs under that node limit, whether the
// member budget comes from the batch defaults or the member itself.
func TestSliceInheritsMemberBudget(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	br := e.submitBatch(t, BatchRequest{
		Policy: []string{"FD", "XICI"},
		Budget: BudgetSpec{NodeLimit: 100000},
		Slice:  BudgetSpec{TimeoutMS: 60000},
		Jobs: []BatchEntry{
			{SubmitRequest: SubmitRequest{Builtin: "fifo", Params: map[string]int{"depth": 3}}},
			{SubmitRequest: SubmitRequest{Builtin: "fifo", Params: map[string]int{"depth": 3}, Budget: BudgetSpec{NodeLimit: 50000}}},
		},
	})
	e.waitBatchDone(t, br.ID)
	for i, want := range []int{100000, 50000} {
		st := e.waitDone(t, br.Jobs[i])
		if len(st.Attempts) == 0 {
			t.Fatalf("member %d: no attempts (%s)", i, st.Error)
		}
		if got := st.Attempts[0].NodeLimit; got != want {
			t.Errorf("member %d: first rung ran under node limit %d, want the member budget's %d", i, got, want)
		}
	}
}

// Every 400 is decided before routing: invalid engines, options and
// budgets entering a 2-node cluster are rejected by the entry node,
// whichever node owns the model, and nothing is forwarded.
func TestInvalidSubmissionRejectedBeforeRouting(t *testing.T) {
	nodes := startClusterNodes(t, 2, nil)
	entry := nodes[0]
	peerOwned := 0
	for bits := 2; bits < 18; bits++ {
		cp := SubmitRequest{Model: counterModel(bits)}
		identity, err := normalizeModel(&cp)
		if err != nil {
			t.Fatal(err)
		}
		if _, self := entry.cl.OwnerOf(identity); !self {
			peerOwned++
		}
		for _, bad := range []SubmitRequest{
			{Model: counterModel(bits), Engine: "Magic"},
			{Model: counterModel(bits), Options: OptionsSpec{Termination: "psychic"}},
			{Model: counterModel(bits), Budget: BudgetSpec{NodeLimit: -7}},
		} {
			if resp := postJSON(t, entry.url()+"/jobs", bad, nil); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("bits %d %+v: status %d, want 400", bits, bad, resp.StatusCode)
			}
		}
		batch := BatchRequest{Jobs: []BatchEntry{{SubmitRequest: SubmitRequest{Model: counterModel(bits), Engine: "Magic"}}}}
		if resp := postJSON(t, entry.url()+"/batches", batch, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bits %d batch: status %d, want 400", bits, resp.StatusCode)
		}
	}
	if peerOwned == 0 {
		t.Fatal("the peer owns none of the probe models; the test routes nothing")
	}
	met := getDoc(t, entry.url()+"/metrics")
	if got := metricInt(t, met, "forwarded_out"); got != 0 {
		t.Errorf("forwarded_out = %d, want 0: invalid submissions were routed before validation", got)
	}
	if got := metricInt(t, met, "submitted"); got != 0 {
		t.Errorf("submitted = %d after only invalid submissions", got)
	}
}

// A flood of concurrent submissions against a full queue registers
// none of them: every id in the job history still names a retained job,
// so no stale id is left to shrink the history.
func TestQueueFullFloodLeavesHistoryConsistent(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	long := SubmitRequest{Model: counterModel(18), Name: "counter", Engine: "Fwd"}
	a := e.submit(t, long)
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
	b := e.submit(t, long) // takes the one queue slot

	body, err := json.Marshal(long)
	if err != nil {
		t.Fatal(err)
	}
	codes := make([]int, 256)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(e.ts.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusServiceUnavailable {
			t.Errorf("flood submission %d: status %d, want 503", i, code)
		}
	}

	e.srv.mu.Lock()
	for _, id := range e.srv.jobs.order {
		if _, ok := e.srv.jobs.byID[id]; !ok {
			t.Errorf("history holds id %s with no retained job", id)
		}
	}
	ordered, retained := len(e.srv.jobs.order), len(e.srv.jobs.byID)
	e.srv.mu.Unlock()
	if ordered != 2 || retained != 2 {
		t.Errorf("history has %d ids and %d jobs, want the 2 admitted", ordered, retained)
	}
	if got := metricInt(t, e.metricsDoc(t), "submitted"); got != 2 {
		t.Errorf("submitted = %d, want 2", got)
	}

	for _, id := range []string{a, b} {
		req, _ := http.NewRequest("DELETE", e.ts.URL+"/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	e.waitDone(t, a)
	e.waitDone(t, b)
}

// A model that parses but cannot instantiate (no state bit, or a
// variable named like a constant) is a 400 at admission, async, in wait
// mode and as a batch member alike: it takes no queue slot, no worker
// and no job id, and ends in no error state.
func TestUninstantiableModelRejected(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1})
	for _, model := range []string{
		"(good true)",
		"(input a)\n(good a)",
		"(input true)\n(state s :init 0 :next s)\n(good s)",
	} {
		for _, wait := range []bool{false, true} {
			resp, data := e.post(t, SubmitRequest{Model: model, Wait: wait})
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%q wait=%v: status %d (%s), want 400", model, wait, resp.StatusCode, data)
			}
		}
		batch := BatchRequest{Jobs: []BatchEntry{
			{SubmitRequest: SubmitRequest{Builtin: "fifo", Params: map[string]int{"depth": 3}}},
			{SubmitRequest: SubmitRequest{Model: model}},
		}}
		if resp := postJSON(t, e.ts.URL+"/batches", batch, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q as a batch member: status %d, want 400", model, resp.StatusCode)
		}
	}
	if got := metricInt(t, e.metricsDoc(t), "submitted"); got != 0 {
		t.Errorf("submitted = %d after only rejected submissions", got)
	}
	_, data := e.get(t, "/jobs")
	var jobs []JobStatus
	if err := json.Unmarshal(data, &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Errorf("%d jobs listed after only rejected submissions", len(jobs))
	}
}
