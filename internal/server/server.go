// Package server implements icid, the networked verification service:
// an HTTP/JSON API that accepts verification jobs (textual models in
// the internal/lang wire format, or zoo built-ins sized by their named
// params), queues them on a bounded queue, runs them on Config.Workers
// worker goroutines — one fresh BDD manager per job, the job's resource.Budget joined to the
// daemon lifecycle and (for synchronous submissions) the client's
// request context — and streams per-job progress as NDJSON by
// marshalling each verify.Event the run's Options.Observer receives.
// Completed deterministic results live in a content-addressed cache
// keyed by the canonical model text, engine, options, and budget.
//
// Endpoints: POST /jobs, GET /jobs, GET /jobs/{id}, DELETE /jobs/{id},
// GET /jobs/{id}/events (NDJSON stream), POST /batches, GET /batches,
// GET /batches/{id}, DELETE /batches/{id}, GET /batches/{id}/events
// (multiplexed NDJSON stream), GET /models, GET /healthz, GET /metrics.
//
// A batch admits many members atomically under one shared resource
// pool and an optional portfolio scheduling policy: an engine ladder
// run cheapest-first, each non-final rung under a small slice budget,
// escalating on the budget-exhaustion causes and never on
// cancellation.
// See docs/api.md for the wire reference and DESIGN.md §11 for the
// architecture.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/resource"
	"repro/internal/store"
	"repro/internal/verify"
	"repro/internal/zoo"
)

// Config sizes the daemon. The zero value is usable: GOMAXPROCS
// workers, a 64-deep queue, a 128-entry result cache, unbounded
// budgets.
type Config struct {
	// Workers is the scheduler width (<= 0 selects GOMAXPROCS). Each
	// worker runs one job at a time on its own BDD manager.
	Workers int

	// QueueCap bounds the number of jobs waiting to run; submissions
	// past it are rejected with 503 (0 = 64).
	QueueCap int

	// CacheCap bounds the result cache entries (0 = 128, < 0 disables).
	CacheCap int

	// JobHistory bounds retained terminal jobs; the oldest are evicted
	// once exceeded so the daemon's memory is bounded under sustained
	// traffic (0 = 1024).
	JobHistory int

	// DefaultBudget fills budget fields a submission leaves at zero.
	DefaultBudget resource.Budget

	// MaxNodeLimit and MaxTimeout clamp every job's budget server-side;
	// 0 means no clamp. When set, a request with no (or an unlimited)
	// bound gets the maximum instead of running unbounded.
	MaxNodeLimit int
	MaxTimeout   time.Duration

	// Store is the persistent result tier beneath the in-memory cache
	// (nil = memory only). The server reads and writes it during
	// operation; the caller owns Open and the final Close/flush.
	Store *store.Store

	// Cluster enables consistent-hash job routing (nil = standalone).
	// The caller owns Start/Stop of its health-probe loop.
	Cluster *cluster.Cluster

	// Version is the build identity /healthz reports ("" = "dev").
	Version string
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 64
	}
	if cfg.CacheCap == 0 {
		cfg.CacheCap = 128
	}
	if cfg.JobHistory == 0 {
		cfg.JobHistory = 1024
	}
	if cfg.Version == "" {
		cfg.Version = "dev"
	}
	return cfg
}

// Server is the verification service. Create with New, expose with
// Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	met     *metrics
	store   *store.Store     // persistent result tier, nil = memory only
	cluster *cluster.Cluster // consistent-hash routing, nil = standalone
	forward *http.Client     // proxies forwarded submissions (request-context bounded)

	baseCtx    context.Context         // parent of every job lifecycle context
	baseCancel context.CancelCauseFunc // fired when the drain deadline passes

	// submitMu makes admission atomic: admit holds it while it checks
	// accepting and free queue slots and then registers and enqueues,
	// and Shutdown holds it while it flips accepting and closes the
	// channel, so a send on a closed channel is impossible.
	submitMu  sync.Mutex
	accepting atomic.Bool
	tasks     chan *job
	schedDone chan struct{}

	mu      sync.Mutex
	jobs    history[*job]
	batches history[*batch]
	cache   *resultCache
	started time.Time
}

// New creates a Server and starts its scheduler workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        cfg,
		met:        newMetrics(),
		store:      cfg.Store,
		cluster:    cfg.Cluster,
		forward:    &http.Client{},
		baseCtx:    ctx,
		baseCancel: cancel,
		tasks:      make(chan *job, cfg.QueueCap),
		schedDone:  make(chan struct{}),
		jobs:       newHistory[*job]("job", "j%06d"),
		batches:    newHistory[*batch]("batch", "b%05d"),
		cache:      newResultCache(cfg.CacheCap),
		started:    time.Now(),
	}
	s.accepting.Store(true)
	if s.store != nil {
		st := s.store
		s.met.top.Set("store", expvar.Func(func() any { return st.Stats() }))
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", handleEvents(s, &s.jobs))
	mux.HandleFunc("POST /batches", s.handleBatchSubmit)
	mux.HandleFunc("GET /batches", s.handleBatchList)
	mux.HandleFunc("GET /batches/{id}", s.handleBatchStatus)
	mux.HandleFunc("DELETE /batches/{id}", s.handleBatchCancel)
	mux.HandleFunc("GET /batches/{id}/events", handleEvents(s, &s.batches))
	mux.HandleFunc("GET /models", s.handleModels)
	mux.HandleFunc("GET /cluster", s.handleCluster)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.met.handler)
	s.mux = mux

	s.startScheduler()
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the service: stop accepting submissions, let the
// workers finish the queued and in-flight jobs, and — once ctx expires
// — budget-cancel whatever is still running and wait for it to
// finalize. Every job reaches a terminal state with its final event
// line appended before Shutdown returns; the error reports whether the
// drain needed the cancellation deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.submitMu.Lock()
	if s.accepting.Swap(false) {
		close(s.tasks)
	}
	s.submitMu.Unlock()
	select {
	case <-s.schedDone:
		return nil
	case <-ctx.Done():
		// Deadline passed: cancel every job's lifecycle context. Runs
		// abort on their next budget check and finalize as exhausted /
		// canceled, so the workers still drain — now promptly.
		s.baseCancel(fmt.Errorf("icid: drain deadline passed: %w", context.Cause(ctx)))
		<-s.schedDone
		return ctx.Err()
	}
}

// Draining reports whether the server has stopped accepting jobs.
func (s *Server) Draining() bool { return !s.accepting.Load() }

// Workers returns the scheduler width after defaulting.
func (s *Server) Workers() int { return s.cfg.Workers }

// --- handlers ----------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeSubmission reads a POST body of at most limit bytes into v,
// rejecting unknown fields, and reports whether the handler goes on; it
// writes the 503 (draining) or 400 itself. The raw body is returned so
// a routed submission forwards verbatim: the peer resolves the
// identical bytes and agrees on the routing key.
func (s *Server) decodeSubmission(w http.ResponseWriter, r *http.Request, limit int64, v any) ([]byte, bool) {
	if !s.accepting.Load() {
		writeError(w, http.StatusServiceUnavailable, "%v", errDraining)
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil, false
	}
	return body, true
}

// handleSubmit is POST /jobs: resolve, route to the owning cluster node
// (or execute locally), consult the two-tier result cache, admit, and
// answer at once (202, or 200 with a cache hit) or, in wait mode, with
// the final status.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	body, ok := s.decodeSubmission(w, r, 1<<20, &req)
	if !ok {
		return
	}
	j, err := s.resolve(req, &BatchRequest{}, nil)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Routing is keyed on the canonical model identity alone, so every
	// engine/budget variant of one model lands on the same node's caches.
	if s.routeRemote(w, r, j.identity, body, "/jobs") {
		return
	}
	// A hit needs no queue slot: admit registers the job and the
	// replayed answer finalizes it here.
	entry := s.lookupResult(cacheKey(j.identity, string(j.ladder[0]), j.opt, j.budget))
	j.cached = entry != nil
	if req.Wait {
		j.reqCtx = r.Context()
	}
	if err := s.admit(nil, j); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if entry != nil {
		j.replay(entry.events)
		s.finalize(j, entry.result, "")
	} else if !req.Wait {
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: j.id, Node: s.nodeName()})
		return
	}
	// Wait mode: the job's budget is joined to this request's context, so
	// a disconnect cancels the run server-side; waiting on done suffices.
	<-j.done
	st := j.status()
	writeJSON(w, http.StatusOK, SubmitResponse{ID: j.id, Cached: entry != nil, Status: &st, Node: s.nodeName()})
}

// resolve validates one submission into a job ready for admission: a
// POST /jobs body, or a batch member with d holding the batch's member
// defaults and policy its resolved ladder. The model is normalized here,
// exactly once. The ladder is the explicit engine, else the policy, else
// XICI. Options and budget take d's values in the fields the member
// leaves at zero, and the slice takes the member budget in the fields
// d.Slice leaves at zero. Every 400 a submission can earn is decided
// here, before routing, so a peer never sees a request this node would
// reject.
func (s *Server) resolve(req SubmitRequest, d *BatchRequest, policy []verify.Method) (*job, error) {
	identity, err := normalizeModel(&req)
	if err != nil {
		return nil, err
	}
	ladder := policy
	switch {
	case req.Engine != "":
		meth, ok := verify.Resolve(req.Engine)
		if !ok {
			return nil, fmt.Errorf("unknown engine %q (registered: %v)", req.Engine, verify.Registered())
		}
		ladder = []verify.Method{meth}
	case len(policy) == 0:
		ladder = []verify.Method{verify.XICI}
	}
	opt, err := mergeOptions(req.Options, d.Options).options()
	if err != nil {
		return nil, err
	}
	spec := mergeBudget(req.Budget, d.Budget)
	budget, err := spec.budget(s.cfg)
	if err != nil {
		return nil, err
	}
	slice, err := mergeBudget(d.Slice, spec).budget(s.cfg)
	if err != nil {
		return nil, fmt.Errorf("slice: %w", err)
	}
	return &job{
		eventLog: newEventLog(),
		identity: identity,
		name:     req.Name,
		req:      req,
		opt:      opt,
		budget:   budget,
		ladder:   ladder,
		slice:    slice,
		state:    StateQueued,
		engine:   ladder[0],
	}, nil
}

var errDraining = errors.New("draining: not accepting jobs")

// admit is the one admission path, for a single submission (b nil) and
// a batch alike: all of jobs are admitted or none. Under submitMu it
// checks the drain state and that the queue has a slot for every job
// still to run (a job already answered from the cache takes none)
// before anything is registered, counted, or given a lifecycle context.
// admit is the only sender on s.tasks and the workers only receive, so
// the slots checked here are still free for the sends below.
func (s *Server) admit(b *batch, jobs ...*job) error {
	s.submitMu.Lock()
	defer s.submitMu.Unlock()
	if !s.accepting.Load() {
		return errDraining
	}
	queued := 0
	for _, j := range jobs {
		if !j.cached {
			queued++
		}
	}
	if free := cap(s.tasks) - len(s.tasks); free < queued {
		return fmt.Errorf("queue full: %d free slots, %d needed", free, queued)
	}

	parent, now := s.baseCtx, time.Now()
	s.mu.Lock()
	if b != nil {
		b.id = s.batches.add(b)
		b.submitted = now
		b.ctx, b.cancel = context.WithCancelCause(s.baseCtx)
		parent = b.ctx
	}
	for _, j := range jobs {
		j.id = s.jobs.add(j)
		j.submitted, j.batch = now, b
		j.ctx, j.cancel = context.WithCancelCause(parent)
		if b != nil {
			j.onDone = b.memberDone
		}
	}
	s.jobs.evict(s.cfg.JobHistory)
	s.batches.evict(s.cfg.JobHistory)
	s.mu.Unlock()

	if b != nil {
		s.met.batches.Add(1)
	}
	s.met.submitted.Add(int64(len(jobs)))
	s.met.queued.Add(int64(queued))
	for _, j := range jobs {
		if !j.cached {
			s.tasks <- j
		}
	}
	return nil
}

// logged is a job or a batch: anything with an embedded eventLog.
type logged interface{ log() *eventLog }

// history retains jobs or batches by id, in admission order. Past its
// bound the oldest terminal entries are evicted, so the daemon's memory
// stays bounded under sustained traffic. Callers hold the server mutex.
type history[T logged] struct {
	kind, idFormat string
	byID           map[string]T
	order          []string
	seq            int
}

func newHistory[T logged](kind, idFormat string) history[T] {
	return history[T]{kind: kind, idFormat: idFormat, byID: make(map[string]T)}
}

// add retains v under the next id and returns the id.
func (h *history[T]) add(v T) string {
	h.seq++
	id := fmt.Sprintf(h.idFormat, h.seq)
	h.byID[id] = v
	h.order = append(h.order, id)
	return id
}

// evict drops the oldest terminal entries past limit.
func (h *history[T]) evict(limit int) {
	excess := len(h.order) - limit
	if excess <= 0 {
		return
	}
	kept := h.order[:0]
	for _, id := range h.order {
		if excess > 0 && h.byID[id].log().terminal() {
			delete(h.byID, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	h.order = kept
}

// list returns the retained entries, id-ordered.
func (h *history[T]) list() []T {
	ids := append([]string(nil), h.order...)
	sort.Strings(ids)
	out := make([]T, len(ids))
	for i, id := range ids {
		out[i] = h.byID[id]
	}
	return out
}

// find returns the entry the request's {id} names, or writes the 404.
func find[T logged](s *Server, h *history[T], w http.ResponseWriter, r *http.Request) (T, bool) {
	s.mu.Lock()
	v, ok := h.byID[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such %s %q", h.kind, r.PathValue("id"))
	}
	return v, ok
}

// handleList is GET /jobs: every retained job's status, id-ordered.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := s.jobs.list()
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStatus is GET /jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := find(s, &s.jobs, w, r); ok {
		writeJSON(w, http.StatusOK, j.status())
	}
}

// handleCancel is DELETE /jobs/{id}: cancel the job's lifecycle
// context. A queued job finalizes as canceled when a worker pops it; a
// running job aborts at its next budget check.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if j, ok := find(s, &s.jobs, w, r); ok {
		j.cancel(fmt.Errorf("icid: canceled via DELETE /jobs/%s", j.id))
		writeJSON(w, http.StatusOK, j.status())
	}
}

// handleEvents serves GET /jobs/{id}/events and GET /batches/{id}/events:
// the job's or batch's event log as NDJSON. By default it follows the
// log until its final line (a job's "done", or a batch's closing tally
// after every member's lines); ?follow=0 dumps the lines so far and
// closes. The final line is in before the log is marked final, so a
// client that reads to EOF has the complete history.
func handleEvents[T logged](s *Server, h *history[T]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, ok := find(s, h, w, r)
		if !ok {
			return
		}
		l := v.log()
		follow := r.URL.Query().Get("follow") != "0"
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Cache-Control", "no-store")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		for i := 0; ; {
			lines, changed, final := l.since(i)
			for _, line := range lines {
				w.Write(line)
				w.Write([]byte("\n"))
			}
			i += len(lines)
			if flusher != nil && len(lines) > 0 {
				flusher.Flush()
			}
			if final || !follow {
				return
			}
			select {
			case <-changed:
			case <-r.Context().Done():
				return
			}
		}
	}
}

// handleModels is GET /models: the zoo registry — every builtin a
// submission may name, with its parameter defaults and the sizes its
// family is benchmarked at.
func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	names := zoo.Names()
	out := make([]ModelInfo, 0, len(names))
	for _, name := range names {
		e, ok := zoo.Get(name)
		if !ok {
			continue
		}
		sizes := make([]map[string]int, len(e.Sizes))
		for i, sz := range e.Sizes {
			sizes[i] = map[string]int(sz)
		}
		out = append(out, ModelInfo{
			Name:     e.Name,
			Desc:     e.Desc,
			Defaults: map[string]int(e.Defaults),
			Sizes:    sizes,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz is GET /healthz: liveness plus a small amount of
// introspection (drain state, queue depth, registered engines,
// builtin models, build version, persistence and cluster identity).
// The cluster health-probe loop keys off the "status" field: "ok"
// means routable, anything else (including "draining") means peers
// should route around this node.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	retained := len(s.jobs.byID)
	retainedBatches := len(s.batches.byID)
	cached := s.cache.len()
	s.mu.Unlock()
	engines := make([]string, 0)
	for _, m := range verify.Registered() {
		engines = append(engines, string(m))
	}
	doc := map[string]any{
		"status":           map[bool]string{true: "draining", false: "ok"}[s.Draining()],
		"version":          s.cfg.Version,
		"uptime_seconds":   time.Since(s.started).Seconds(),
		"workers":          s.cfg.Workers,
		"queue_capacity":   s.cfg.QueueCap,
		"jobs_retained":    retained,
		"batches_retained": retainedBatches,
		"results_cached":   cached,
		"engines":          engines,
		"builtins":         Builtins(),
	}
	if s.store != nil {
		doc["store_path"] = s.store.Dir()
		doc["store_entries"] = s.store.Len()
	}
	if s.cluster != nil {
		doc["cluster_role"] = "member"
		doc["cluster_self"] = s.cluster.Self()
	} else {
		doc["cluster_role"] = "standalone"
	}
	writeJSON(w, http.StatusOK, doc)
}
