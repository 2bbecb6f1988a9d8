package server

import (
	"expvar"
	"net/http"
	"runtime"

	"repro/internal/bdd"
)

// metrics is the daemon's counter set, served at /metrics in expvar's
// JSON rendering. The counters are per-Server (not expvar-published
// globals), so tests and embedders can run several servers in one
// process.
//
// Invariants the metrics test pins down:
//
//	submitted == queued + running + completed + errors
//	completed == verified + violated + exhausted
//	cancelled <= exhausted           (cancellation is an exhaustion cause)
//	sum over engines == completed
//	attempts >= completed - (cache-hit and queued-cancel short circuits)
//	escalations <= attempts
//	cache_lookups == cache_memory_hits + cache_store_hits + cache_misses
//	cache_hits == cache_memory_hits + cache_store_hits
//
// Batch members are ordinary jobs, so the job-level invariants hold
// across the batch path unchanged: a batch of N adds 1 to batches and
// N to submitted/queued.
type metrics struct {
	submitted expvar.Int // accepted jobs, POST /jobs and batch members alike
	queued    expvar.Int // gauge: jobs waiting in the queue
	running   expvar.Int // gauge: jobs on a worker
	completed expvar.Int // jobs that reached state "done"
	errors    expvar.Int // jobs that reached state "error"
	verified  expvar.Int // done with outcome verified
	violated  expvar.Int // done with outcome violated
	exhausted expvar.Int // done with outcome exhausted (any cause)
	cancelled expvar.Int // exhausted specifically by cancellation
	cacheHits expvar.Int // submissions/attempts answered from either cache tier
	engines   expvar.Map // per-engine completed totals

	batches     expvar.Int // accepted POST /batches (rejections excluded)
	attempts    expvar.Int // engine attempts finished (every ladder rung counts)
	escalations expvar.Int // attempts whose exhaustion moved the ladder on

	// Two-tier cache accounting: every content-addressed probe is one
	// lookup, answered by the in-memory LRU, the persistent store, or
	// neither.
	cacheLookups   expvar.Int // content-addressed probes (submission + attempt level)
	cacheMemHits   expvar.Int // answered by the in-memory LRU
	cacheStoreHits expvar.Int // answered by the persistent store (promoted to memory)
	cacheMisses    expvar.Int // answered by neither tier
	cacheEvictions expvar.Int // entries the LRU pushed out past its capacity

	// Cluster-routing accounting.
	forwardedOut     expvar.Int // submissions proxied to their owning peer
	forwardedIn      expvar.Int // submissions received with the forward header
	forwardFallbacks expvar.Int // owner down/unreachable: executed locally instead

	top expvar.Map // the /metrics document
}

func newMetrics() *metrics {
	mt := &metrics{}
	mt.engines.Init()
	mt.top.Init()
	mt.top.Set("submitted", &mt.submitted)
	mt.top.Set("queued", &mt.queued)
	mt.top.Set("running", &mt.running)
	mt.top.Set("completed", &mt.completed)
	mt.top.Set("errors", &mt.errors)
	mt.top.Set("verified", &mt.verified)
	mt.top.Set("violated", &mt.violated)
	mt.top.Set("exhausted", &mt.exhausted)
	mt.top.Set("cancelled", &mt.cancelled)
	mt.top.Set("cache_hits", &mt.cacheHits)
	mt.top.Set("engines", &mt.engines)
	mt.top.Set("batches", &mt.batches)
	mt.top.Set("attempts", &mt.attempts)
	mt.top.Set("escalations", &mt.escalations)
	mt.top.Set("cache_lookups", &mt.cacheLookups)
	mt.top.Set("cache_memory_hits", &mt.cacheMemHits)
	mt.top.Set("cache_store_hits", &mt.cacheStoreHits)
	mt.top.Set("cache_misses", &mt.cacheMisses)
	mt.top.Set("cache_evictions", &mt.cacheEvictions)
	mt.top.Set("forwarded_out", &mt.forwardedOut)
	mt.top.Set("forwarded_in", &mt.forwardedIn)
	mt.top.Set("forward_fallbacks", &mt.forwardFallbacks)
	// Process-wide memory gauges. The BDD tables of large jobs live in
	// mappings that runtime.MemStats does not count, so the heap figure
	// alone misses most of a busy daemon's memory.
	mt.top.Set("bdd_mapped_bytes", expvar.Func(func() any { return bdd.MappedBytes() }))
	mt.top.Set("go_heap_inuse_bytes", expvar.Func(func() any {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}))
	return mt
}

// completedJob counts one terminal "done" job into the outcome and
// per-engine counters.
func (mt *metrics) completedJob(engine string, rw *ResultWire) {
	mt.completed.Add(1)
	switch rw.Outcome {
	case "verified":
		mt.verified.Add(1)
	case "violated":
		mt.violated.Add(1)
	case "exhausted":
		mt.exhausted.Add(1)
		if rw.Cause == "canceled" {
			mt.cancelled.Add(1)
		}
	}
	mt.engines.Add(engine, 1)
}

// handler serves the expvar JSON document.
func (mt *metrics) handler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write([]byte(mt.top.String()))
	w.Write([]byte("\n"))
}
