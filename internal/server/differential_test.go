package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/bdd"
	"repro/internal/difftest"
	"repro/internal/lang"
	"repro/internal/store"
	"repro/internal/verify"
)

// diffInstance is one differential instance: the model text a client
// submits and the library's own answer to it.
type diffInstance struct {
	name string
	req  SubmitRequest
	ref  *ResultWire
}

// differentialInstances lowers the difftest corpus seeds and ten random
// draws from a fixed seed to model text, and runs each through
// verify.RunContext on a fresh manager to get the reference result.
func differentialInstances(t *testing.T) []diffInstance {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "difftest", "testdata", "corpus", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("difftest corpus: %d seeds, err %v", len(paths), err)
	}
	var params []difftest.Params
	var names []string
	for _, path := range paths {
		sf, err := difftest.LoadSeed(path)
		if err != nil {
			t.Fatal(err)
		}
		params = append(params, sf.Params)
		names = append(names, filepath.Base(path))
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 10; i++ {
		p := difftest.RandomParams(rng)
		params = append(params, p)
		names = append(names, fmt.Sprintf("%s/seed=%d", p.Kind, p.Seed))
	}

	insts := make([]diffInstance, len(params))
	for i, p := range params {
		mo, err := difftest.BuildModel(p)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		req := SubmitRequest{
			Model:   mo.Format(),
			Name:    names[i],
			Engine:  string(verify.XICI),
			Options: OptionsSpec{WantTrace: true},
		}
		ref, err := libraryResult(req)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		insts[i] = diffInstance{name: names[i], req: req, ref: ref}
	}
	return insts
}

// libraryResult runs req's model text under XICI through
// verify.RunContext on a fresh manager, and projects the result the way
// the service does.
func libraryResult(req SubmitRequest) (*ResultWire, error) {
	m := bdd.New()
	prob, err := lang.Parse(m, req.Model, req.Name)
	if err != nil {
		return nil, err
	}
	res := verify.RunContext(context.Background(), prob, verify.XICI, verify.Options{WantTrace: true})
	rw := resultWire(res, renderTrace(res, m, prob))
	rw.TotalVars = m.NumVars()
	return rw, nil
}

// routeIndependent renders the part of a result that no route may
// change: everything but the problem label, the timings and the
// manager-level counters. mem_bytes and peak_live_nodes depend on how
// the manager was sized; checkRoute checks total_vars on its own.
func routeIndependent(rw *ResultWire) string {
	c := *rw
	c.Problem, c.ElapsedMS, c.PhaseMS = "", 0, nil
	c.MemBytes, c.PeakLiveNodes, c.TotalVars = 0, 0, 0
	b, err := json.Marshal(c)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// checkRoute compares one route's result for inst with the library's.
func checkRoute(t *testing.T, route string, inst diffInstance, rw *ResultWire) {
	t.Helper()
	if rw == nil {
		t.Errorf("%s %s: no result", route, inst.name)
		return
	}
	if got, want := routeIndependent(rw), routeIndependent(inst.ref); got != want {
		t.Errorf("%s %s differs from verify.RunContext:\n got  %s\n want %s", route, inst.name, got, want)
	}
	if rw.TotalVars != inst.ref.TotalVars || rw.PeakLiveNodes == 0 {
		t.Errorf("%s %s: total_vars %d (want %d), peak_live_nodes %d (want > 0)",
			route, inst.name, rw.TotalVars, inst.ref.TotalVars, rw.PeakLiveNodes)
	}
}

// submitAll POSTs every instance's request in wait mode to the base
// URL base(i) names and returns the responses in instance order. Four
// requests in flight keep a server's two workers busy.
func submitAll(t *testing.T, insts []diffInstance, base func(i int) string) []SubmitResponse {
	t.Helper()
	out := make([]SubmitResponse, len(insts))
	errs := make([]error, len(insts))
	sem := make(chan struct{}, 4)
	var wg sync.WaitGroup
	for i := range insts {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			out[i], errs[i] = submitWait(base(i), insts[i].req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", insts[i].name, err)
		}
	}
	return out
}

// submitWait POSTs req in wait mode and returns the response, which
// must carry the final status inline.
func submitWait(base string, req SubmitRequest) (SubmitResponse, error) {
	req.Wait = true
	var sr SubmitResponse
	body, err := json.Marshal(req)
	if err != nil {
		return sr, err
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return sr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sr, fmt.Errorf("POST %s/jobs: %s", base, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return sr, err
	}
	if sr.Status == nil {
		return sr, fmt.Errorf("POST %s/jobs: no inline status", base)
	}
	return sr, nil
}

// TestServiceMatchesLibrary is the service-path differential: every
// instance, through each of five routes, must come back with the
// verdict, depth, counters, profile and trace that verify.RunContext
// gives for the same model text. The routes cover a fresh run, both
// cache tiers, a forwarded run and a batch member.
func TestServiceMatchesLibrary(t *testing.T) {
	insts := differentialInstances(t)
	n := len(insts)

	// Routes 1 and 2: a fresh run on a server with a store, then the
	// same submission again, answered from memory.
	dir := t.TempDir()
	st, err := store.Open(dir, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e1 := newTestServer(t, Config{Store: st})
	at1 := func(int) string { return e1.ts.URL }
	for i, sr := range submitAll(t, insts, at1) {
		if sr.Cached {
			t.Errorf("fresh %s: answered from the cache", insts[i].name)
		}
		checkRoute(t, "fresh", insts[i], sr.Status.Result)
	}
	for i, sr := range submitAll(t, insts, at1) {
		if !sr.Cached {
			t.Errorf("memory-hit %s: recomputed", insts[i].name)
		}
		checkRoute(t, "memory-hit", insts[i], sr.Status.Result)
	}
	if got := metricInt(t, e1.metricsDoc(t), "cache_memory_hits"); got != n {
		t.Errorf("cache_memory_hits = %d, want %d", got, n)
	}

	// Route 3: shut down, close and reopen the store, start a new
	// server; every answer must come from the store.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e1.srv.Shutdown(ctx)
	e1.ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	e2 := newTestServer(t, Config{Store: st2})
	for i, sr := range submitAll(t, insts, func(int) string { return e2.ts.URL }) {
		if !sr.Cached {
			t.Errorf("store-hit %s: recomputed", insts[i].name)
		}
		checkRoute(t, "store-hit", insts[i], sr.Status.Result)
	}
	if got := metricInt(t, e2.metricsDoc(t), "cache_store_hits"); got != n {
		t.Errorf("cache_store_hits = %d, want %d", got, n)
	}

	// Route 4: enter a 2-node cluster at the node that does not own the
	// model, so the owner runs it.
	nodes := startClusterNodes(t, 2, nil)
	owners := make([]string, n)
	entries := make([]string, n)
	for i, inst := range insts {
		cp := inst.req
		identity, err := normalizeModel(&cp)
		if err != nil {
			t.Fatal(err)
		}
		owners[i], _ = nodes[0].cl.OwnerOf(identity)
		entries[i] = nodes[0].url()
		if nodes[0].addr == owners[i] {
			entries[i] = nodes[1].url()
		}
	}
	for i, sr := range submitAll(t, insts, func(i int) string { return entries[i] }) {
		if sr.Node != owners[i] || sr.Cached {
			t.Errorf("forwarded %s: node %q cached %v, want a run on owner %q", insts[i].name, sr.Node, sr.Cached, owners[i])
		}
		checkRoute(t, "forwarded", insts[i], sr.Status.Result)
	}

	// Route 5: every instance as a member of one batch, cache off.
	e5 := newTestServer(t, Config{CacheCap: -1})
	breq := BatchRequest{Name: "differential"}
	for _, inst := range insts {
		breq.Jobs = append(breq.Jobs, BatchEntry{SubmitRequest: inst.req})
	}
	br := e5.submitBatch(t, breq)
	bst := e5.waitBatchDone(t, br.ID)
	if len(bst.Members) != n {
		t.Fatalf("batch reports %d members, want %d", len(bst.Members), n)
	}
	for i, mem := range bst.Members {
		if mem.Cached {
			t.Errorf("batch member %s: cached with the cache off", insts[i].name)
		}
		checkRoute(t, "batch-member", insts[i], mem.Result)
	}
}
