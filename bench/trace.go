package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one layer-boundary interval. Spans of one request share its
// identifier; Parent is the index of the span that caused this one (−1
// for a root).
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"` // ns since the trace began
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// tracer keeps spans in memory until write. It is safe for concurrent
// use: the served pass records from every client goroutine.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a root span at the current time and returns its index.
func (t *tracer) begin(name string, request int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: -1, Request: request})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// place records a span of a separately measured duration at a chosen
// offset. The in-process pass times each layer call on its own and lays
// the pieces out on the request's timeline, a nested piece inside its
// parent, so that self times add up without counting anything twice.
func (t *tracer) place(name string, parent, request int, start int64, d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + int64(d), Parent: parent, Request: request})
	return len(t.spans) - 1
}

// setEnd stretches a placed parent span to cover the pieces laid inside it.
func (t *tracer) setEnd(id int, end int64) {
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover (in nanoseconds).
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if self := s.End - s.Start - covered[i]; self > 0 {
			out[s.Name] += float64(self)
		}
	}
	return out
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Unit     string `json:"unit"`
		Spans    []span `json:"spans"`
	}{workload, seed, "ns", t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
