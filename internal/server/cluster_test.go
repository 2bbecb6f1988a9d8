package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/store"
)

// clusterNode is one member of an in-process icid cluster: a real TCP
// listener (so peers can reach it), its Server, its Cluster state, and
// the number of its POST handlers still running.
type clusterNode struct {
	addr  string
	srv   *Server
	cl    *cluster.Cluster
	posts atomic.Int64
}

func (n *clusterNode) url() string { return "http://" + n.addr }

// startClusterNodes boots n servers on real loopback listeners, each
// configured with the full membership. cfgFor may be nil (zero config).
func startClusterNodes(t *testing.T, n int, cfgFor func(i int) Config) []*clusterNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		peers := make([]string, 0, n-1)
		for k, a := range addrs {
			if k != i {
				peers = append(peers, a)
			}
		}
		cl := cluster.New(cluster.Config{Self: addrs[i], Peers: peers, CheckInterval: 25 * time.Millisecond})
		cl.Start()
		cfg := Config{}
		if cfgFor != nil {
			cfg = cfgFor(i)
		}
		cfg.Cluster = cl
		srv := New(cfg)
		node := &clusterNode{addr: addrs[i], srv: srv, cl: cl}
		h := srv.Handler()
		hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				node.posts.Add(1)
				defer node.posts.Add(-1)
			}
			h.ServeHTTP(w, r)
		})}
		go hs.Serve(listeners[i])
		nodes[i] = node
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			hs.Close()
			cl.Stop()
		})
	}
	return nodes
}

// postJSON POSTs v to url and returns the parsed response body.
func postJSON(t *testing.T, url string, v any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("response from %s not JSON: %v (%s)", url, err, data)
		}
	}
	return resp
}

// getDoc GETs url and parses the JSON document.
func getDoc(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("GET %s not JSON: %v (%s)", url, err, data)
	}
	return doc
}

// Acceptance (a): a submission entering the cluster at the non-owning
// node is forwarded to its owner, which computes it once; the same
// model submitted again — to either node — is answered from the owner's
// cache with no recomputation anywhere.
func TestClusterForwardingNoRecompute(t *testing.T) {
	nodes := startClusterNodes(t, 2, nil)
	model := counterModel(2)

	// Work out who owns this model's canonical identity, and pick the
	// other node as the entry point so the submission must forward.
	cp := SubmitRequest{Model: model}
	identity, err := normalizeModel(&cp)
	if err != nil {
		t.Fatal(err)
	}
	ownerAddr, _ := nodes[0].cl.OwnerOf(identity)
	var owner, entry *clusterNode
	for _, n := range nodes {
		if n.addr == ownerAddr {
			owner = n
		} else {
			entry = n
		}
	}
	if owner == nil || entry == nil {
		t.Fatalf("ring produced no owner among %v (owner %q)", nodes, ownerAddr)
	}

	// Submit through the non-owner: executed by the owner, computed once.
	var sr1 SubmitResponse
	resp := postJSON(t, entry.url()+"/jobs", SubmitRequest{Model: model, Wait: true}, &sr1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded submit: %d", resp.StatusCode)
	}
	if sr1.Node != owner.addr {
		t.Fatalf("executed on %q, want owner %q", sr1.Node, owner.addr)
	}
	if sr1.Cached {
		t.Fatal("first submission cannot be a cache hit")
	}
	if sr1.Status == nil || sr1.Status.Result == nil || sr1.Status.Result.Outcome != "verified" {
		t.Fatalf("forwarded result: %+v", sr1.Status)
	}

	// Submit the same model directly to the owner: a memory-cache hit.
	var sr2 SubmitResponse
	postJSON(t, owner.url()+"/jobs", SubmitRequest{Model: model, Wait: true}, &sr2)
	if !sr2.Cached || sr2.Node != owner.addr {
		t.Fatalf("owner resubmit: cached=%v node=%q", sr2.Cached, sr2.Node)
	}
	// And again through the non-owner: forwarded, still no recompute.
	var sr3 SubmitResponse
	postJSON(t, entry.url()+"/jobs", SubmitRequest{Model: model, Wait: true}, &sr3)
	if !sr3.Cached || sr3.Node != owner.addr {
		t.Fatalf("forwarded resubmit: cached=%v node=%q", sr3.Cached, sr3.Node)
	}

	ownerMet := getDoc(t, owner.url()+"/metrics")
	entryMet := getDoc(t, entry.url()+"/metrics")
	if got := metricInt(t, ownerMet, "attempts"); got != 1 {
		t.Fatalf("owner attempts = %d, want exactly 1 computation in the cluster", got)
	}
	if got := metricInt(t, entryMet, "attempts"); got != 0 {
		t.Fatalf("entry node computed %d attempts, want 0", got)
	}
	if got := metricInt(t, entryMet, "submitted"); got != 0 {
		t.Fatalf("entry node registered %d jobs, want 0 (all forwarded)", got)
	}
	if got := metricInt(t, entryMet, "forwarded_out"); got != 2 {
		t.Fatalf("entry forwarded_out = %d, want 2", got)
	}
	if got := metricInt(t, ownerMet, "forwarded_in"); got != 2 {
		t.Fatalf("owner forwarded_in = %d, want 2", got)
	}
	if got := metricInt(t, ownerMet, "completed"); got != 3 {
		t.Fatalf("owner completed = %d, want 3", got)
	}

	// The /cluster endpoints agree on membership.
	cdoc := getDoc(t, entry.url()+"/cluster")
	if cdoc["enabled"] != true {
		t.Fatalf("/cluster: %v", cdoc)
	}
	if members, _ := cdoc["members"].([]any); len(members) != 2 {
		t.Fatalf("/cluster members: %v", cdoc["members"])
	}
}

// When the owner is down, a submission falls back to local execution
// instead of failing — and the fallback is counted.
func TestClusterOwnerDownFallsBackLocally(t *testing.T) {
	// One real node plus one dead peer that owns (at least) some keys.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close() // nothing listens: every forward to it fails

	live, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(cluster.Config{Self: live.Addr().String(), Peers: []string{deadAddr}, CheckInterval: time.Hour})
	cl.Start()
	srv := New(Config{Cluster: cl})
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(live)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		hs.Close()
		cl.Stop()
	})
	base := "http://" + live.Addr().String()

	// Find a model the dead peer owns (vary the model until routing
	// picks it; peers start optimistically alive so the first such
	// submission attempts the forward and falls back). The routing key
	// is the canonical model text, so each probe adds a differently
	// named idle bit: three counter widths alone gave only three keys,
	// and the ring put all three on self in about one run in eight.
	var model string
	for bits := 2; bits < 64; bits++ {
		probe := counterModel(bits%3+2) + fmt.Sprintf("(state pad%d :init 0 :next pad%d)\n", bits, bits)
		cp := SubmitRequest{Model: probe, Name: fmt.Sprintf("m%d", bits)}
		id, err := normalizeModel(&cp)
		if err != nil {
			t.Fatal(err)
		}
		if owner, self := cl.OwnerOf(id); owner == deadAddr && !self {
			model = probe
			break
		}
	}
	if model == "" {
		t.Skip("ring gave every probe key to self")
	}

	var sr SubmitResponse
	resp := postJSON(t, base+"/jobs", SubmitRequest{Model: model, Wait: true}, &sr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback submit: %d", resp.StatusCode)
	}
	if sr.Status == nil || sr.Status.Result == nil || sr.Status.Result.Outcome != "verified" {
		t.Fatalf("fallback result: %+v", sr.Status)
	}
	met := getDoc(t, base+"/metrics")
	if got := metricInt(t, met, "forward_fallbacks"); got != 1 {
		t.Fatalf("forward_fallbacks = %d, want 1", got)
	}
	if cl.Alive(deadAddr) {
		t.Fatal("dead peer still believed alive after a failed forward")
	}
}

// A client that hangs up while its submission is being forwarded says
// nothing about the owner: the entry node must neither mark the owner
// down nor run the submission itself for a client that is gone.
func TestClusterClientHangUpDuringForward(t *testing.T) {
	nodes := startClusterNodes(t, 2, nil)
	// FIFO depth 10 under Fwd runs for seconds, so the hop is still open
	// when the client leaves.
	req := SubmitRequest{Builtin: "fifo", Params: map[string]int{"depth": 10}, Engine: "Fwd", Wait: true}
	cp := req
	identity, err := normalizeModel(&cp)
	if err != nil {
		t.Fatal(err)
	}
	ownerAddr, _ := nodes[0].cl.OwnerOf(identity)
	owner, entry := nodes[0], nodes[1]
	if owner.addr != ownerAddr {
		owner, entry = entry, owner
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	buf, _ := json.Marshal(req)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, entry.url()+"/jobs", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	sent := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hreq)
		if err == nil {
			resp.Body.Close()
		}
		sent <- err
	}()
	// Hang up once the owner holds the forwarded submission.
	waitFor(t, "the forward to reach the owner", func() bool {
		return metricInt(t, getDoc(t, owner.url()+"/metrics"), "forwarded_in") == 1
	})
	cancel()
	if err := <-sent; err == nil {
		t.Fatal("the canceled submission got a response")
	}
	waitFor(t, "the entry node's handler to return", func() bool { return entry.posts.Load() == 0 })

	met := getDoc(t, entry.url()+"/metrics")
	for _, key := range []string{"submitted", "attempts", "forward_fallbacks"} {
		if got := metricInt(t, met, key); got != 0 {
			t.Errorf("entry node %s = %d, want 0", key, got)
		}
	}
	for _, p := range entry.cl.Status().Peers {
		if p.Failures != 0 {
			t.Errorf("entry node counts %d failures of %s (%s)", p.Failures, p.Addr, p.LastError)
		}
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// eventLines fetches a job's complete NDJSON event stream.
func eventLines(t *testing.T, base, id string) [][]byte {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/events?follow=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var lines [][]byte
	for _, l := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(l)) > 0 {
			lines = append(lines, l)
		}
	}
	return lines
}

// Acceptance (b): a verdict computed before a restart is served from
// the on-disk store afterwards — no recomputation, and the replayed
// event stream is byte-identical to the live run's (minus the
// scheduling-only "running" status line, which a store hit never has).
func TestStoreServesAcrossRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Store: st})
	ts1 := httptest.NewServer(s1.Handler())
	model := counterModel(3)

	var sr1 SubmitResponse
	resp := postJSON(t, ts1.URL+"/jobs", SubmitRequest{Model: model, Wait: true}, &sr1)
	if resp.StatusCode != http.StatusOK || sr1.Cached {
		t.Fatalf("first submit: %d cached=%v", resp.StatusCode, sr1.Cached)
	}
	live := eventLines(t, ts1.URL, sr1.ID)
	if len(live) < 2 {
		t.Fatalf("live stream too short to prove replay: %d lines", len(live))
	}

	// Restart: drain the server, flush and close the store, reopen both.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s1.Shutdown(ctx)
	ts1.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	if rec := st2.Recovery(); rec.Quarantined != 0 || rec.Entries != 1 {
		t.Fatalf("recovery after clean restart: %+v", rec)
	}
	s2 := New(Config{Store: st2})
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
		ts2.Close()
	})

	var sr2 SubmitResponse
	postJSON(t, ts2.URL+"/jobs", SubmitRequest{Model: model, Wait: true}, &sr2)
	if !sr2.Cached {
		t.Fatal("post-restart submission recomputed instead of hitting the store")
	}
	met := getDoc(t, ts2.URL+"/metrics")
	if got := metricInt(t, met, "cache_store_hits"); got != 1 {
		t.Fatalf("cache_store_hits = %d, want 1", got)
	}
	if got := metricInt(t, met, "attempts"); got != 0 {
		t.Fatalf("attempts = %d after restart, want 0", got)
	}

	// Byte-identical replay: the stored stream is the live stream minus
	// its "running" status line (pure scheduling, never part of the
	// cached computation); every remaining line must match exactly.
	replayed := eventLines(t, ts2.URL, sr2.ID)
	wantLines := live[1:]
	if len(replayed) != len(wantLines) {
		t.Fatalf("replayed %d lines, want %d\nlive: %s\nreplay: %s",
			len(replayed), len(wantLines), bytes.Join(live, []byte("|")), bytes.Join(replayed, []byte("|")))
	}
	for i := range wantLines {
		if !bytes.Equal(replayed[i], wantLines[i]) {
			t.Fatalf("line %d differs:\nlive:   %s\nreplay: %s", i, wantLines[i], replayed[i])
		}
	}
}

// Acceptance (c): the documented two-tier metric invariants hold across
// computes, an LRU eviction, and a store-hit promotion.
func TestTwoTierMetricsInvariants(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	e := newTestServer(t, Config{Store: st, CacheCap: 1})

	modelA := counterModel(2)
	modelB := counterModel(3)
	var sr SubmitResponse
	postJSON(t, e.ts.URL+"/jobs", SubmitRequest{Model: modelA, Wait: true}, &sr) // compute A
	postJSON(t, e.ts.URL+"/jobs", SubmitRequest{Model: modelB, Wait: true}, &sr) // compute B, evict A
	postJSON(t, e.ts.URL+"/jobs", SubmitRequest{Model: modelA, Wait: true}, &sr) // A from disk
	if !sr.Cached {
		t.Fatal("evicted entry not recovered from the store")
	}

	doc := e.metricsDoc(t)
	lookups := metricInt(t, doc, "cache_lookups")
	memHits := metricInt(t, doc, "cache_memory_hits")
	storeHits := metricInt(t, doc, "cache_store_hits")
	misses := metricInt(t, doc, "cache_misses")
	hits := metricInt(t, doc, "cache_hits")
	if lookups != memHits+storeHits+misses {
		t.Fatalf("cache_lookups %d != memory %d + store %d + misses %d", lookups, memHits, storeHits, misses)
	}
	if hits != memHits+storeHits {
		t.Fatalf("cache_hits %d != memory %d + store %d", hits, memHits, storeHits)
	}
	if storeHits != 1 {
		t.Fatalf("cache_store_hits = %d, want 1", storeHits)
	}
	if got := metricInt(t, doc, "cache_evictions"); got != 2 {
		t.Fatalf("cache_evictions = %d, want 2 (B evicts A, A's promotion evicts B)", got)
	}
	submitted := metricInt(t, doc, "submitted")
	if sum := metricInt(t, doc, "queued") + metricInt(t, doc, "running") +
		metricInt(t, doc, "completed") + metricInt(t, doc, "errors"); submitted != sum {
		t.Fatalf("submitted %d != queued+running+completed+errors %d", submitted, sum)
	}
	// The store stats document rides along in /metrics.
	storeDoc, ok := doc["store"].(map[string]any)
	if !ok {
		t.Fatalf("store stats missing from /metrics: %v", doc["store"])
	}
	if int(storeDoc["entries"].(float64)) != 2 {
		t.Fatalf("store entries = %v, want 2", storeDoc["entries"])
	}
}

// Satellite: a corrupted store entry is quarantined on startup, the
// resubmitted job falls through to a fresh run, and the recomputed
// verdict is rewritten — after which it serves from disk again.
func TestStoreCorruptionFallsThroughToFreshRun(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Store: st})
	ts1 := httptest.NewServer(s1.Handler())
	model := counterModel(2)
	var sr SubmitResponse
	postJSON(t, ts1.URL+"/jobs", SubmitRequest{Model: model, Wait: true}, &sr)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s1.Shutdown(ctx)
	ts1.Close()
	st.Close()

	// Flip a payload byte in the one stored record.
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	var seg string
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil && fi.Size() > 0 {
			seg = s
		}
	}
	if seg == "" {
		t.Fatalf("no non-empty segment in %v", segs)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-20] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rec := st2.Recovery(); rec.Quarantined != 1 || rec.Entries != 0 {
		t.Fatalf("recovery: %+v, want 1 quarantined span and no entries", rec)
	}
	s2 := New(Config{Store: st2})
	ts2 := httptest.NewServer(s2.Handler())

	// The job falls through to a fresh run and rewrites the entry.
	var sr2 SubmitResponse
	postJSON(t, ts2.URL+"/jobs", SubmitRequest{Model: model, Wait: true}, &sr2)
	if sr2.Cached {
		t.Fatal("corrupt entry served as a cache hit")
	}
	if sr2.Status == nil || sr2.Status.Result == nil || sr2.Status.Result.Outcome != "verified" {
		t.Fatalf("fresh run: %+v", sr2.Status)
	}
	if st2.Len() != 1 {
		t.Fatalf("store has %d entries after recompute, want the rewritten one", st2.Len())
	}
	s2.Shutdown(ctx)
	ts2.Close()
	st2.Close()

	// Third life: the rewritten entry serves from disk.
	st3, err := store.Open(dir, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st3.Close() })
	if rec := st3.Recovery(); rec.Quarantined != 0 || rec.Entries != 1 {
		t.Fatalf("third open: %+v", rec)
	}
	s3 := New(Config{Store: st3})
	ts3 := httptest.NewServer(s3.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s3.Shutdown(ctx)
		ts3.Close()
	})
	var sr3 SubmitResponse
	postJSON(t, ts3.URL+"/jobs", SubmitRequest{Model: model, Wait: true}, &sr3)
	if !sr3.Cached {
		t.Fatal("rewritten entry not served from disk")
	}
}

// A batch routes as one unit to the node owning the member-identity
// hash, wherever it enters the cluster.
func TestClusterBatchRoutesAsUnit(t *testing.T) {
	nodes := startClusterNodes(t, 2, nil)
	breq := BatchRequest{Jobs: []BatchEntry{
		{SubmitRequest: SubmitRequest{Model: counterModel(2), Name: "a"}},
		{SubmitRequest: SubmitRequest{Model: counterModel(3), Name: "b"}},
	}}

	// Compute the batch's routing key the way the server does.
	identities := make([]string, len(breq.Jobs))
	for i := range breq.Jobs {
		cp := breq.Jobs[i].SubmitRequest
		id, err := normalizeModel(&cp)
		if err != nil {
			t.Fatal(err)
		}
		identities[i] = id
	}
	ownerAddr, _ := nodes[0].cl.OwnerOf(batchKey(identities))
	var owner, entry *clusterNode
	for _, n := range nodes {
		if n.addr == ownerAddr {
			owner = n
		} else {
			entry = n
		}
	}

	var br BatchResponse
	resp := postJSON(t, entry.url()+"/batches", breq, &br)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: %d", resp.StatusCode)
	}
	if br.Node != owner.addr {
		t.Fatalf("batch executed on %q, want owner %q", br.Node, owner.addr)
	}
	if len(br.Jobs) != 2 {
		t.Fatalf("batch members: %v", br.Jobs)
	}
	// The members live on the owner, not the entry node.
	deadline := time.Now().Add(60 * time.Second)
	for {
		doc := getDoc(t, owner.url()+"/metrics")
		if metricInt(t, doc, "completed") == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch members never completed on the owner")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := metricInt(t, getDoc(t, entry.url()+"/metrics"), "batches"); got != 0 {
		t.Fatalf("entry node registered %d batches, want 0", got)
	}
}
