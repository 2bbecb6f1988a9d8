package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one instance or
// request share Unit; Parent 0 marks a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Start  float64 `json:"start_s"` // seconds since the tracer was made
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	cost  time.Duration // time spent recording spans and counters
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 when t is nil).
func (t *tracer) add(parent int, name, unit string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	in := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Unit: unit,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	t.cost += time.Since(in)
	return id
}

// charge adds time spent recording counters at a span boundary to the
// tracer's cost.
func (t *tracer) charge(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cost += d
	t.mu.Unlock()
}

// overhead is trace.overhead_frac: the share of busy, the traced run's
// busy time, spent recording spans and counters.
func (t *tracer) overhead(busy time.Duration) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return ratio(t.cost.Seconds(), busy.Seconds())
}

// reserve allocates an id for a span whose children finish before it
// does; fill completes it.
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	in := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1})
	t.cost += time.Since(in)
	return len(t.spans)
}

func (t *tracer) fill(id, parent int, name, unit string, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	in := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{
		ID: id, Parent: parent, Name: name, Unit: unit,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	}
	t.cost += time.Since(in)
}

// spanTotal is the time recorded under one span name. Self time is a
// span's duration minus the part of it its child spans cover.
type spanTotal struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (t *tracer) summary() map[string]spanTotal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanTotal{}
	for _, s := range t.spans {
		dur := s.End - s.Start
		st := out[s.Name]
		st.Count++
		st.TotalS += dur
		st.SelfS += dur - covered(s, children[s.ID])
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// write stores the spans and their summary as one JSON document.
func (t *tracer) write(path string, cfg config) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	sum := t.summary()
	t.mu.Lock()
	doc := map[string]any{
		"workload": cfg.Workload,
		"seed":     cfg.Seed,
		"summary":  sum,
		"spans":    t.spans,
	}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
