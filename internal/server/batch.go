package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/resource"
	"repro/internal/verify"
	"repro/internal/zoo"
)

// A batch is many member jobs admitted in one POST /batches: they share
// a resource pool (node allowance decremented as members finish, one
// wall window for the whole batch), optionally a portfolio scheduling
// policy (the escalation ladder the members without an explicit engine
// run), and a multiplexed NDJSON stream interleaving every member's
// event lines — each labeled with its member id — with batch lifecycle
// lines. Members are ordinary jobs: they take the same resolve and
// admit as a single POST /jobs, and the batch's log is the same eventLog
// type. The batch-wide drain guarantee mirrors the per-job one: the
// final batch "done" line goes in with the close of the batch's done
// channel, so a client reading GET /batches/{id}/events to EOF has seen
// the complete history, member verdicts included.

// Batch states.
const (
	BatchRunning = "running"
	BatchDone    = "done"
)

type batch struct {
	eventLog // mu also guards remaining

	id        string
	name      string
	policy    []verify.Method
	pool      *resource.Pool
	submitted time.Time
	members   []*job
	remaining int

	// ctx parents every member's lifecycle context, so one cancel (the
	// DELETE handler, or batch completion releasing resources) reaches
	// them all.
	ctx    context.Context
	cancel context.CancelCauseFunc
}

// batchLine is the NDJSON envelope of batch lifecycle markers.
type batchLine struct {
	Event       string   `json:"event"` // "batch" or "done"
	State       string   `json:"state"`
	Members     int      `json:"members,omitempty"`
	Policy      []string `json:"policy,omitempty"`
	Verified    int      `json:"verified"`
	Violated    int      `json:"violated"`
	Exhausted   int      `json:"exhausted"`
	Errors      int      `json:"errors"`
	PoolLeft    int      `json:"pool_nodes_left,omitempty"`
	Attempts    int      `json:"attempts,omitempty"`
	Escalations int      `json:"escalations,omitempty"`
}

// labelLine splices a member label into a pre-marshaled JSON object
// line: {"x":1} becomes {"member":"j000007","x":1}. Every line in a
// job's buffer is an object the server marshaled itself, so the splice
// is safe; the one defensive case is the empty object.
func labelLine(member string, line json.RawMessage) json.RawMessage {
	line = bytes.TrimSpace(line)
	if len(line) < 2 || line[0] != '{' {
		return line // not an object; pass through unlabeled
	}
	var b bytes.Buffer
	b.Grow(len(line) + len(member) + 16)
	fmt.Fprintf(&b, "{%q:%q", "member", member)
	if line[1] != '}' {
		b.WriteByte(',')
	}
	b.Write(line[1:])
	return b.Bytes()
}

// memberDone is installed as every member's onDone hook. The last
// member to finish seals the batch with the final "done" line, which
// carries the status tally and closes the batch's done channel — after
// every member's own lines, so the batch-wide drain guarantee holds.
func (b *batch) memberDone() {
	b.mu.Lock()
	b.remaining--
	last := b.remaining == 0
	b.mu.Unlock()
	if !last {
		return
	}
	st := b.status(false)
	line := batchLine{
		Event: "done", State: BatchDone, Members: len(b.members),
		Verified: st.Verified, Violated: st.Violated, Exhausted: st.Exhausted, Errors: st.Errors,
		Attempts: st.Attempts, Escalations: st.Escalations,
	}
	if st.Pool != nil && st.Pool.NodesLeft > 0 {
		line.PoolLeft = st.Pool.NodesLeft
	}
	data, _ := json.Marshal(line) // strings and ints only: cannot fail
	b.append(data, true)
	b.cancel(errBatchFinished)
}

var errBatchFinished = fmt.Errorf("icid: batch finished")

// status snapshots the batch's wire status; withMembers controls
// whether the (potentially large) member list rides along.
func (b *batch) status(withMembers bool) BatchStatus {
	st := BatchStatus{
		ID:          b.id,
		Name:        b.name,
		State:       BatchRunning,
		SubmittedAt: b.submitted.UTC().Format(time.RFC3339Nano),
	}
	if b.terminal() {
		st.State = BatchDone
	}
	for _, m := range b.policy {
		st.Policy = append(st.Policy, string(m))
	}
	nodes, deadline := b.pool.Remaining()
	if nodes >= 0 || !deadline.IsZero() {
		pw := &PoolWire{NodesLeft: nodes}
		if !deadline.IsZero() {
			pw.DeadlineMS = float64(time.Until(deadline)) / float64(time.Millisecond)
		}
		st.Pool = pw
	}
	for _, j := range b.members {
		js := j.status()
		if withMembers {
			st.Members = append(st.Members, js)
		}
		st.Attempts += len(js.Attempts)
		for _, a := range js.Attempts {
			if a.Escalated {
				st.Escalations++
			}
		}
		switch {
		case js.State == StateError:
			st.Done++
			st.Errors++
		case js.State == StateDone && js.Result != nil:
			st.Done++
			switch js.Result.Outcome {
			case "verified":
				st.Verified++
			case "violated":
				st.Violated++
			default:
				st.Exhausted++
			}
		}
	}
	return st
}

// --- submission --------------------------------------------------------

// escalationCauses are the exhaustion causes that move a portfolio
// member to its next engine: the deterministic budget walls plus
// "other" (algorithmic exhaustion — a non-inductive property, an FD
// configuration error — exactly what a stronger engine may decide).
// Cancellation is deliberate, client- or daemon-initiated, and never
// escalates.
var escalationCauses = map[string]bool{
	"node-limit":    true,
	"deadline":      true,
	"iteration-cap": true,
	"other":         true,
}

// escalates reports whether a finished attempt hands the member to the
// next ladder rung.
func escalates(rw *ResultWire) bool {
	return rw.Outcome == verify.Exhausted.String() && escalationCauses[rw.Cause]
}

// resolvePolicy validates an engine-name ladder against the registry.
func resolvePolicy(names []string) ([]verify.Method, error) {
	ladder := make([]verify.Method, 0, len(names))
	for _, name := range names {
		meth, ok := verify.Resolve(name)
		if !ok {
			return nil, fmt.Errorf("policy engine %q unknown (registered: %v)", name, verify.Registered())
		}
		ladder = append(ladder, meth)
	}
	return ladder, nil
}

// mergeBudget fills a member budget spec's zero fields from the batch
// default.
func mergeBudget(member, batch BudgetSpec) BudgetSpec {
	if member.NodeLimit == 0 {
		member.NodeLimit = batch.NodeLimit
	}
	if member.TimeoutMS == 0 {
		member.TimeoutMS = batch.TimeoutMS
	}
	if member.MaxIterations == 0 {
		member.MaxIterations = batch.MaxIterations
	}
	return member
}

// mergeOptions fills a member options spec's zero fields from the
// batch default.
func mergeOptions(member, batch OptionsSpec) OptionsSpec {
	if member.Termination == "" {
		member.Termination = batch.Termination
	}
	if member.GrowThreshold == 0 {
		member.GrowThreshold = batch.GrowThreshold
	}
	if member.GCEvery == 0 {
		member.GCEvery = batch.GCEvery
	}
	member.WantTrace = member.WantTrace || batch.WantTrace
	return member
}

// expandEntry turns one batch entry into its member SubmitRequests: a
// grid reference becomes one member per benchmark size of the zoo
// entry, anything else passes through unchanged.
func expandEntry(idx int, e BatchEntry) ([]SubmitRequest, error) {
	if e.Wait {
		return nil, fmt.Errorf("jobs[%d]: \"wait\" is not valid inside a batch (follow /batches/{id}/events instead)", idx)
	}
	if e.Grid == "" {
		return []SubmitRequest{e.SubmitRequest}, nil
	}
	if e.Model != "" || e.Builtin != "" || len(e.Params) != 0 {
		return nil, fmt.Errorf("jobs[%d]: \"grid\" is mutually exclusive with \"model\", \"builtin\" and \"params\"", idx)
	}
	ze, ok := zoo.Get(e.Grid)
	if !ok {
		return nil, fmt.Errorf("jobs[%d]: unknown grid entry %q (builtins: %s)", idx, e.Grid, strings.Join(Builtins(), ", "))
	}
	sizes := ze.Sizes
	if len(sizes) == 0 {
		sizes = []zoo.Size{{}}
	}
	out := make([]SubmitRequest, 0, len(sizes))
	for _, size := range sizes {
		req := e.SubmitRequest
		req.Builtin = e.Grid
		req.Params = map[string]int(size)
		if req.Name == "" {
			req.Name = e.Grid + gridSizeLabel(size)
		}
		out = append(out, req)
	}
	return out, nil
}

// gridSizeLabel renders a size map deterministically for member names.
func gridSizeLabel(s zoo.Size) string {
	if len(s) == 0 {
		return ""
	}
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, s[k])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// handleBatchSubmit is POST /batches: resolve every member exactly
// like a single POST /jobs, route the batch as one unit, then admit it
// all-or-nothing — every member gets a queue slot or the submission is
// rejected 503 with nothing registered and no metric moved.
func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var breq BatchRequest
	body, ok := s.decodeSubmission(w, r, 8<<20, &breq)
	if !ok {
		return
	}
	if len(breq.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no jobs")
		return
	}
	policy, err := resolvePolicy(breq.Policy)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if breq.Pool.MaxIterations != 0 {
		writeError(w, http.StatusBadRequest, "pool.max_iterations is not meaningful batch-wide (set it per member or in \"budget\")")
		return
	}
	if breq.Pool.NodeLimit < 0 || breq.Pool.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, "pool bounds must be >= 0 (zero = unbounded)")
		return
	}

	// Expand grid references and resolve every member: any failure
	// rejects the whole batch before routing.
	var jobs []*job
	var identities []string
	for i, entry := range breq.Jobs {
		reqs, err := expandEntry(i, entry)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		for _, req := range reqs {
			j, err := s.resolve(req, &breq, policy)
			if err != nil {
				writeError(w, http.StatusBadRequest, "jobs[%d]: %v", len(jobs), err)
				return
			}
			jobs = append(jobs, j)
			identities = append(identities, j.identity)
		}
	}
	// A batch routes as one unit, keyed on all member identities — its
	// members share one resource pool, which cannot split across nodes.
	if s.routeRemote(w, r, batchKey(identities), body, "/batches") {
		return
	}

	b := &batch{
		eventLog:  newEventLog(),
		name:      breq.Name,
		policy:    policy,
		pool:      resource.NewPool(breq.Pool.NodeLimit, time.Duration(breq.Pool.TimeoutMS)*time.Millisecond),
		members:   jobs,
		remaining: len(jobs),
	}
	// The opening line goes in before any member can reach a worker, so
	// the multiplexed stream always starts with it.
	policyNames := make([]string, len(policy))
	for i, m := range policy {
		policyNames[i] = string(m)
	}
	opening, _ := json.Marshal(batchLine{Event: "batch", State: BatchRunning, Members: len(jobs), Policy: policyNames}) // cannot fail
	b.append(opening, false)
	if err := s.admit(b, jobs...); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}

	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.id
	}
	writeJSON(w, http.StatusAccepted, BatchResponse{ID: b.id, Jobs: ids, Node: s.nodeName()})
}

// handleBatchList is GET /batches: every retained batch's summary
// status (members omitted), id-ordered.
func (s *Server) handleBatchList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	batches := s.batches.list()
	s.mu.Unlock()
	out := make([]BatchStatus, len(batches))
	for i, b := range batches {
		out[i] = b.status(false)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleBatchStatus is GET /batches/{id}: the batch with full member
// statuses, attempt records included.
func (s *Server) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	if b, ok := find(s, &s.batches, w, r); ok {
		writeJSON(w, http.StatusOK, b.status(true))
	}
}

// handleBatchCancel is DELETE /batches/{id}: cancel every member's
// lifecycle context in one stroke. Queued members finalize as canceled
// when a worker pops them; running members abort at their next budget
// check. The batch seals itself once the last member lands.
func (s *Server) handleBatchCancel(w http.ResponseWriter, r *http.Request) {
	if b, ok := find(s, &s.batches, w, r); ok {
		b.cancel(fmt.Errorf("icid: batch canceled via DELETE /batches/%s", b.id))
		writeJSON(w, http.StatusOK, b.status(false))
	}
}
