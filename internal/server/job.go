package server

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/resource"
	"repro/internal/verify"
)

// eventLog is the append-only buffer behind a job's or a batch's NDJSON
// stream. It holds pre-marshaled lines, so the stream and a cache replay
// are byte-identical and need no re-encoding. Followers snapshot (lines,
// change channel, final) under mu and write the stable prefix outside
// it. The last line goes in under the same lock that closes done, so a
// reader that sees the log final has every line. mu also guards the
// owning job's or batch's other mutable fields.
type eventLog struct {
	mu      sync.Mutex
	lines   []json.RawMessage
	changed chan struct{} // closed and replaced on every append
	done    chan struct{} // closed with the last line
}

func newEventLog() eventLog {
	return eventLog{changed: make(chan struct{}), done: make(chan struct{})}
}

// log gives generic code (history, handleEvents) the log embedded in a
// job or batch.
func (l *eventLog) log() *eventLog { return l }

// appendLocked appends one line and wakes followers; last makes it the
// log's final line and closes done. The caller holds mu.
func (l *eventLog) appendLocked(line json.RawMessage, last bool) {
	l.lines = append(l.lines, line)
	close(l.changed)
	l.changed = make(chan struct{})
	if last {
		close(l.done)
	}
}

func (l *eventLog) append(line json.RawMessage, last bool) {
	l.mu.Lock()
	l.appendLocked(line, last)
	l.mu.Unlock()
}

// since returns the lines from index i on (aliasing the append-only
// buffer, so stable), the current change channel, and whether the log
// is final.
func (l *eventLog) since(i int) (lines []json.RawMessage, changed chan struct{}, final bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < len(l.lines) {
		lines = l.lines[i:len(l.lines):len(l.lines)]
	}
	return lines, l.changed, l.terminal()
}

// terminal reports whether the last line is in, without taking mu.
func (l *eventLog) terminal() bool {
	select {
	case <-l.done:
		return true
	default:
		return false
	}
}

// job is one verification task: a POST /jobs body or a batch member,
// built by Server.resolve and admitted by Server.admit. Its log holds the
// engine events from the verify.Observer adapter plus lifecycle markers.
type job struct {
	eventLog // mu also guards state through cached

	id       string
	identity string // canonical model identity ("ir:" + canonical text)
	name     string
	req      SubmitRequest
	opt      verify.Options  // normalized at submission, observer unset
	budget   resource.Budget // resolved and clamped, Ctx unset

	// ladder is the job's engine sequence: a single engine unless the
	// job is a batch member inheriting the batch's portfolio policy.
	// Every rung but the last runs under slice; the last runs under
	// budget.
	ladder []verify.Method
	slice  resource.Budget

	// Set by admit. batch is the owning batch (nil for a single
	// submission); onDone fires once the job is terminal. ctx is the
	// job's lifecycle context, derived from the server's base context or
	// the batch's; cancel ends it (DELETE, the drain deadline, or the job
	// finishing).
	submitted time.Time
	batch     *batch
	onDone    func()
	ctx       context.Context
	cancel    context.CancelCauseFunc

	// reqCtx, for wait-mode submissions, is the HTTP request context the
	// worker joins into the budget so a client disconnect cancels the run.
	reqCtx context.Context

	state    string
	engine   verify.Method // currently / last attempted engine
	attempts []Attempt
	result   *ResultWire
	errMsg   string
	cached   bool
}

// lifecycleLine is the NDJSON envelope for job state transitions,
// interleaved with the engine events in the same stream.
type lifecycleLine struct {
	Event   string `json:"event"` // "status" or "done"
	State   string `json:"state"`
	Outcome string `json:"outcome,omitempty"`
	Cause   string `json:"cause,omitempty"`
	Error   string `json:"error,omitempty"`
}

// emit appends one pre-marshaled line to the job's log and, for a batch
// member, a member-labeled copy to the batch's log. Lines of one job are
// emitted by one goroutine at a time, so the batch sees them in job
// order.
func (j *job) emit(line json.RawMessage) {
	j.append(line, false)
	if j.batch != nil {
		j.batch.append(labelLine(j.id, line), false)
	}
}

// emitEvent marshals and emits one envelope (engine or lifecycle).
func (j *job) emitEvent(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		return // an unmarshalable event must not kill the run
	}
	j.emit(line)
}

// setRunning transitions queued → running and logs the lifecycle line.
func (j *job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
	j.emitEvent(lifecycleLine{Event: "status", State: StateRunning})
}

// finish makes the job terminal with rw or, when rw is nil, in the error
// state with msg. State, result and the final "done" line land in one
// critical section that also closes done, so whoever sees the job
// terminal sees all three: the drain guarantee. The lifecycle context is
// then released so terminal jobs don't accumulate as children of the
// server's base context.
func (j *job) finish(rw *ResultWire, msg string) {
	ll := lifecycleLine{Event: "done", State: StateError, Error: msg}
	if rw != nil {
		ll = lifecycleLine{Event: "done", State: StateDone, Outcome: rw.Outcome, Cause: rw.Cause}
	}
	line, _ := json.Marshal(ll) // strings only: cannot fail
	j.mu.Lock()
	j.state, j.result, j.errMsg = ll.State, rw, msg
	j.appendLocked(line, true)
	j.mu.Unlock()
	if j.batch != nil {
		j.batch.append(labelLine(j.id, line), false)
	}
	j.cancel(errJobFinished)
	if j.onDone != nil {
		j.onDone()
	}
}

// replay marks the job answered from the result cache and emits the
// cached run's engine lines as a live run would.
func (j *job) replay(lines []json.RawMessage) {
	j.mu.Lock()
	j.cached = true
	j.mu.Unlock()
	for _, line := range lines {
		j.emit(line)
	}
}

// setEngine records the engine the job is currently attempting, so
// statuses track the ladder as it escalates.
func (j *job) setEngine(meth verify.Method) {
	j.mu.Lock()
	j.engine = meth
	j.mu.Unlock()
}

// attemptLine is the NDJSON envelope recording one finished engine
// attempt — emitted for batch members and portfolio jobs, so the
// scheduling policy is observable on the stream.
type attemptLine struct {
	Event     string  `json:"event"` // "attempt"
	Engine    string  `json:"engine"`
	Rung      int     `json:"rung"`
	Outcome   string  `json:"outcome"`
	Cause     string  `json:"cause,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Cached    bool    `json:"cached,omitempty"`
	Escalated bool    `json:"escalated,omitempty"`
}

// recordAttempt appends one attempt record to the job's status and,
// for batch/portfolio jobs, the matching event line to its stream.
// Plain single-engine submissions keep their historical stream shape
// (status / engine events / done) — the record still shows in status.
func (j *job) recordAttempt(a Attempt, rung int) {
	j.mu.Lock()
	j.attempts = append(j.attempts, a)
	multi := j.batch != nil || len(j.ladder) > 1
	j.mu.Unlock()
	if multi {
		j.emitEvent(attemptLine{
			Event: "attempt", Engine: a.Engine, Rung: rung,
			Outcome: a.Outcome, Cause: a.Cause, ElapsedMS: a.ElapsedMS,
			Cached: a.Cached, Escalated: a.Escalated,
		})
	}
}

// errJobFinished is the cause installed when a terminal job releases
// its lifecycle context.
var errJobFinished = fmt.Errorf("icid: job finished")

// status snapshots the job's wire status.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Name:        j.name,
		Engine:      string(j.engine),
		Cached:      j.cached,
		Events:      len(j.lines),
		SubmittedAt: j.submitted.UTC().Format(time.RFC3339Nano),
		Error:       j.errMsg,
		Result:      j.result,
	}
	if j.batch != nil {
		st.Batch = j.batch.id
	}
	if len(j.ladder) > 1 {
		st.Policy = make([]string, len(j.ladder))
		for i, m := range j.ladder {
			st.Policy[i] = string(m)
		}
	}
	if len(j.attempts) > 0 {
		st.Attempts = append([]Attempt(nil), j.attempts...)
	}
	return st
}
