// Package par provides the worker-pool primitives behind the repo's
// parallel execution: the concurrent bench grid (internal/bench) and the
// icid job scheduler (internal/server).
//
// The design constraint comes from the BDD substrate: a bdd.Manager is
// not safe for concurrent use, so parallelism in this codebase is always
// "one Manager per task" — every bench cell and every icid job builds
// its own, and tasks share no state the pool would have to guard.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Serve runs n workers (n <= 0 selects GOMAXPROCS) that drain tasks
// from the channel until it is closed and drained, then returns. It is
// the streaming counterpart of Pool.ForEach for long-running callers —
// the icid job scheduler — whose task set is not known up front: tasks
// arrive over the channel's lifetime and each is handed to exactly one
// worker.
//
// Unlike ForEach, Serve offers no panic collection — a panic in fn
// escapes on the worker's goroutine and takes the process down, so a
// daemon must recover inside fn (resource overruns inside verification
// runs are already converted to results by bdd.Guard well below fn).
func Serve[T any](n int, tasks <-chan T, fn func(task T)) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for task := range tasks {
				fn(task)
			}
		}()
	}
	wg.Wait()
}

// Pool is a fixed-width worker pool. A Pool holds no goroutines between
// calls: each ForEach spins up its workers, drains the tasks, and joins,
// so an idle Pool costs nothing. Its one user is bench.Table.RunParallel,
// which creates a pool per table, sized by icibench's -parallel flag.
type Pool struct {
	workers int
}

// NewPool returns a pool of n workers; n <= 0 selects GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n}
}

// ForEach runs fn(task) for every task in [0, n), distributing tasks
// dynamically across the pool's workers. ForEach returns only after
// every started task has finished — it never leaves goroutines behind.
//
// When n is 0 or negative ForEach is a no-op. When the pool has a single
// worker (or a single task), the tasks run inline on the calling
// goroutine in task order, so a one-worker pool exercises the same code
// path deterministically with zero scheduling noise.
//
// A panic in a task stops the distribution of further tasks; after all
// in-flight tasks drain, ForEach re-panics on the calling goroutine with
// the panic value of the lowest-indexed panicking task. Resource-limit
// panics from the bdd package (*LimitError, *DeadlineError) therefore
// propagate to the caller's bdd.Guard exactly as in sequential code, and
// the surviving panic value is chosen stably.
func (p *Pool) ForEach(n int, fn func(task int)) {
	if n <= 0 {
		return
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for t := 0; t < n; t++ {
			fn(t)
		}
		return
	}

	var (
		next  atomic.Int64
		abort atomic.Bool
		wg    sync.WaitGroup

		mu         sync.Mutex
		panicTask  = -1
		panicValue any
	)
	run := func(t int) {
		defer func() {
			if r := recover(); r != nil {
				abort.Store(true)
				mu.Lock()
				if panicTask < 0 || t < panicTask {
					panicTask, panicValue = t, r
				}
				mu.Unlock()
			}
		}()
		fn(t)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !abort.Load() {
				t := int(next.Add(1)) - 1
				if t >= n {
					return
				}
				run(t)
			}
		}()
	}
	wg.Wait()
	if panicTask >= 0 {
		panic(panicValue)
	}
}
