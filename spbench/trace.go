package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a library layer. Parent is the index of
// the enclosing span, -1 for a root. Roots are the benchmark's own
// containers (a setup repetition, one decomposition job, one traced
// client op) and carry no layer: their self time is the part of the
// traced wall time no layer accounts for.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
// Safe for concurrent use (the service clients share one).
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id (-1 when off).
func (t *tracer) begin(name, layer string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere — the
// service time a response reports, placed at the end of its request.
func (t *tracer) add(name, layer string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// ledger is the traced wall time split into layer self times. A span's
// self time is its duration minus its children's durations; root self
// time is Unattributed. By construction the layer self times plus
// Unattributed sum to Wall exactly.
type ledger struct {
	Wall         int64
	Unattributed int64
	Self         map[string]int64
}

func (t *tracer) ledger() ledger {
	l := ledger{Self: map[string]int64{}}
	if t == nil {
		return l
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		} else {
			l.Wall += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if s.Parent < 0 {
			l.Unattributed += self[i]
		} else {
			l.Self[s.Layer] += self[i]
		}
	}
	return l
}

// durations returns the durations in seconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
