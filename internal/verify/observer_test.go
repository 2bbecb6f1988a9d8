package verify

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/fsm"
)

// sinkProblem builds a tiny two-conjunct problem that converges in a few
// iterations, enough to exercise every event kind under XICI.
func sinkProblem(t *testing.T) Problem {
	t.Helper()
	m := bdd.New()
	ma := fsm.New(m)
	a := ma.NewStateBit("a")
	b := ma.NewStateBit("b")
	tick := ma.NewInputBit("tick")
	ma.SetNext(a, m.Xor(m.VarRef(a), m.VarRef(tick)))
	ma.SetNext(b, m.VarRef(a))
	ma.SetInit(m.And(m.VarRef(a).Not(), m.VarRef(b).Not()))
	ma.MustSeal()
	// Trivially inductive conjuncts so the run verifies.
	good := []bdd.Ref{m.Or(m.VarRef(a), m.VarRef(a).Not()), m.Nand(m.VarRef(b), m.VarRef(b).Not())}
	return Problem{Machine: ma, GoodList: good, Name: "sink"}
}

// A func(Event) sink must receive envelopes stamped with the run's
// method, whose payload pointer matches the kind.
func TestSinkObserverDeliversTaggedEvents(t *testing.T) {
	p := sinkProblem(t)
	var events []Event
	res := Run(p, XICI, Options{Observer: func(e Event) { events = append(events, e) }})
	if res.Outcome != Verified {
		t.Fatalf("outcome %v (%s)", res.Outcome, res.Why)
	}
	if len(events) == 0 {
		t.Fatal("no events delivered")
	}
	iters := 0
	for _, e := range events {
		if e.Method != string(XICI) {
			t.Fatalf("event method %q", e.Method)
		}
		switch e.Kind {
		case EventIteration:
			if e.Iteration == nil || e.Merge != nil || e.Term != nil {
				t.Fatalf("iteration envelope payload mismatch: %+v", e)
			}
			iters++
		case EventMerge:
			if e.Merge == nil {
				t.Fatalf("merge envelope payload mismatch: %+v", e)
			}
		case EventTermResolved:
			if e.Term == nil {
				t.Fatalf("term envelope payload mismatch: %+v", e)
			}
		default:
			t.Fatalf("unknown event kind %q", e.Kind)
		}
	}
	// One iteration event per iterate, including the initial one.
	if iters != res.Iterations+1 {
		t.Fatalf("%d iteration events for %d iterations", iters, res.Iterations)
	}
}

// The NDJSON form must flatten payload fields into the envelope — the
// shape both iciverify -events and the icid event stream emit.
func TestNDJSONObserverStream(t *testing.T) {
	p := sinkProblem(t)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	res := Run(p, XICI, Options{Observer: func(e Event) {
		if err := enc.Encode(e); err != nil {
			t.Errorf("encode: %v", err)
		}
	}})
	if res.Outcome != Verified {
		t.Fatalf("outcome %v", res.Outcome)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	sawIterationIndex := false
	for sc.Scan() {
		lines++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		if m["method"] != string(XICI) {
			t.Fatalf("line %d method %v", lines, m["method"])
		}
		kind, _ := m["event"].(string)
		switch kind {
		case EventIteration:
			// Flattened: index/shared_nodes at top level, not nested.
			if _, ok := m["index"]; !ok {
				t.Fatalf("iteration line lacks flattened index: %v", m)
			}
			if _, ok := m["shared_nodes"]; !ok {
				t.Fatalf("iteration line lacks shared_nodes: %v", m)
			}
			sawIterationIndex = true
		case EventMerge, EventTermResolved:
			if _, ok := m["iteration"]; !ok {
				t.Fatalf("%s line lacks flattened iteration: %v", kind, m)
			}
		case "":
			t.Fatalf("line %d has no event tag: %s", lines, sc.Text())
		}
	}
	if lines == 0 || !sawIterationIndex {
		t.Fatalf("stream too thin: %d lines, iteration seen=%v", lines, sawIterationIndex)
	}
	if strings.Contains(buf.String(), "Iteration") {
		t.Fatal("unflattened Go field name leaked into JSON")
	}
}
