package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/bdd"
	"repro/internal/resource"
	"repro/internal/verify"
)

// The scheduler is Config.Workers persistent goroutines ranging over
// the server's bounded job channel, each running one job at a time on
// a manager of its own. Closing the channel (drain) lets the workers
// finish the backlog and exit; the server signals schedDone when the
// last one returns.

// startScheduler launches the workers. It is called once by New.
func (s *Server) startScheduler() {
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range s.tasks {
				s.runJob(j)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(s.schedDone)
	}()
}

// runJob executes one job end to end: its engine ladder walked
// cheapest-first, every rung but the last under the slice budget
// clamped to the owning batch's pool, escalating on budget exhaustion
// (never on cancellation) until a rung settles the verdict or the
// ladder runs out. Single-engine submissions are the one-rung case. Any
// panic that escapes the verification harness is converted into a job
// error rather than taking the daemon down.
func (s *Server) runJob(j *job) {
	s.met.queued.Add(-1)
	if j.ctx.Err() != nil {
		// Canceled (or drained past the deadline) while still queued:
		// finalize without running. The verdict is an exhaustion with
		// the cancellation cause, mirroring what a mid-run cancel
		// produces, so clients observe one shape either way.
		s.finalize(j, &ResultWire{
			Problem: j.name,
			Method:  string(j.ladder[0]),
			Outcome: verify.Exhausted.String(),
			Cause:   "canceled",
			Why:     "canceled before start",
		}, "")
		return
	}
	s.met.running.Add(1)
	j.setRunning()

	defer func() {
		if r := recover(); r != nil {
			s.finalize(j, nil, fmt.Sprintf("internal error: %v\n%s", r, debug.Stack()))
		}
	}()

	for rung, meth := range j.ladder {
		final := rung == len(j.ladder)-1
		j.setEngine(meth)

		budget := j.budget
		if !final {
			budget = j.slice
		}
		if j.batch != nil {
			clamped, err := j.batch.pool.Clamp(budget)
			if err != nil {
				// The shared pool is dry: the member finalizes as
				// exhausted without running, through the same typed
				// cause taxonomy a mid-run overrun produces.
				rw := poolExhaustedWire(j, meth, err)
				s.met.attempts.Add(1)
				j.recordAttempt(attemptOf(rw, budget, false, false), rung)
				s.finalize(j, rw, "")
				return
			}
			budget = clamped
		}

		rw, fromCache, ok := s.runAttempt(j, meth, budget)
		if !ok {
			return // runAttempt already finalized the error state
		}
		if j.batch != nil {
			j.batch.pool.Consume(rw.PeakLiveNodes)
		}
		s.met.attempts.Add(1)

		esc := !final && escalates(rw)
		j.recordAttempt(attemptOf(rw, budget, fromCache, esc), rung)
		if esc {
			s.met.escalations.Add(1)
			continue
		}
		s.finalize(j, rw, "")
		return
	}
}

// attemptOf projects a finished attempt's wire result into its record.
func attemptOf(rw *ResultWire, budget resource.Budget, cached, escalated bool) Attempt {
	return Attempt{
		Engine:        rw.Method,
		Outcome:       rw.Outcome,
		Cause:         rw.Cause,
		Iterations:    rw.Iterations,
		ElapsedMS:     rw.ElapsedMS,
		PeakLiveNodes: rw.PeakLiveNodes,
		NodeLimit:     budget.NodeLimit,
		Cached:        cached,
		Escalated:     escalated,
	}
}

// poolExhaustedWire builds the exhausted verdict of a member that found
// its batch's pool already dry.
func poolExhaustedWire(j *job, meth verify.Method, err error) *ResultWire {
	cause := "other"
	switch {
	case errors.Is(err, resource.ErrNodeLimit):
		cause = "node-limit"
	case errors.Is(err, resource.ErrDeadline):
		cause = "deadline"
	}
	return &ResultWire{
		Problem: j.name,
		Method:  string(meth),
		Outcome: verify.Exhausted.String(),
		Cause:   cause,
		Why:     fmt.Sprintf("batch pool exhausted: %v", err),
	}
}

// runAttempt executes one engine attempt: fresh BDD manager, problem
// construction, the attempt budget joined to the job's lifecycle
// context (and, for wait-mode submissions, the client's request
// context), the verify run with the job's event sink attached, trace
// rendering, and — when the attempt is content-addressable — result
// cache get/put. Returns ok=false after finalizing the job's error
// state (the ladder must not continue past a broken model).
func (s *Server) runAttempt(j *job, meth verify.Method, budget resource.Budget) (rw *ResultWire, fromCache, ok bool) {
	// The cache is consulted only when the budget the attempt runs
	// under is a pure function of the submission: a bounded pool clamps
	// budgets by global batch state, which would poison a
	// content-addressed entry.
	cacheOK := j.batch == nil || !j.batch.pool.Bounded()
	var key string
	if cacheOK {
		key = cacheKey(j.identity, string(meth), j.opt, budget)
		if entry := s.lookupResult(key); entry != nil {
			j.replay(entry.events)
			return entry.result, true, true
		}
	}

	m := bdd.NewWithSize(1<<16, 20)
	p, err := buildProblem(m, &j.req)
	if err != nil {
		s.finalize(j, nil, err.Error())
		return nil, false, false
	}

	budget.Ctx = j.ctx
	budget, release := budget.Join(j.reqCtx)
	defer release()

	// The sink feeds the job's subscriber-visible buffer and, in
	// parallel, collects the engine lines alone for the result cache
	// (lifecycle lines are per-job, not per-computation).
	var engineLines []json.RawMessage
	opt := j.opt
	opt.Budget = budget
	opt.Observer = func(e verify.Event) {
		line, err := json.Marshal(e)
		if err != nil {
			return
		}
		engineLines = append(engineLines, line)
		j.emit(line)
	}

	res := verify.RunContext(j.ctx, p, meth, opt)

	rw = resultWire(res, renderTrace(res, m, p))
	rw.PeakLiveNodes = m.PeakNodes()
	rw.TotalVars = m.NumVars()

	if cacheOK && cacheable(rw) {
		s.storeResult(key, rw, engineLines)
	}
	return rw, false, true
}

// renderTrace validates and renders a violation witness. A failure at
// either step is surfaced in the trace text: silently dropping a
// render error would finalize (and cache) a violated verdict with an
// empty trace, indistinguishable from "no witness requested".
func renderTrace(res verify.Result, m *bdd.Manager, p verify.Problem) string {
	if res.Trace == nil {
		return ""
	}
	goods := p.GoodList
	if goods == nil {
		goods = []bdd.Ref{p.Good}
	}
	if err := res.Trace.Validate(p.Machine, goods); err != nil {
		return fmt.Sprintf("trace validation failed: %v", err)
	}
	rendered, err := res.Trace.Format(m, p.Machine.CurVars())
	if err != nil {
		return fmt.Sprintf("trace render failed: %v", err)
	}
	return rendered
}

// finalize makes a job terminal with rw or, when rw is nil, in the
// error state with msg. The gauges and outcome counters move first, so
// whoever the terminal transition wakes (a wait-mode client, a stream
// follower, the onDone hook) reads submitted == queued + running +
// completed + errors. Only the goroutine finalizing a job moves its
// state, so the running check cannot go stale.
func (s *Server) finalize(j *job, rw *ResultWire, msg string) {
	j.mu.Lock()
	running := j.state == StateRunning
	j.mu.Unlock()
	if running {
		s.met.running.Add(-1)
	}
	if rw != nil {
		s.met.completedJob(rw.Method, rw)
	} else {
		s.met.errors.Add(1)
	}
	j.finish(rw, msg)
}
