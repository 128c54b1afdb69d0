package main

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, or (layer "job") one whole job.
// Spans of one job share its trace ID, the job's index in the run.
type span struct {
	id, parent int // parent 0: a job span
	job        int
	client     int
	layer      string
	start, end time.Duration // since the tracer started
}

// spanRef names an open span so calls can nest under it.
type spanRef struct{ id, job, client int }

// memDelta is one layer's heap allocation tally from the serial pass.
type memDelta struct {
	calls         int
	allocs, bytes uint64
}

// tracer records spans at layer boundaries, from the benchmark's side of
// each call. A nil tracer records nothing: an untraced run pays one
// branch per call. While allocs is non-nil the tracer records no spans
// and instead takes runtime.MemStats deltas around each call; that mode
// is only used for a serial pass, since the counters are process-wide.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	allocs map[string]*memDelta
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span under parent (a zero id starts a job span).
func (t *tracer) open(parent spanRef, layer string) spanRef {
	if t == nil || t.allocs != nil {
		return parent
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		id: len(t.spans) + 1, parent: parent.id, job: parent.job, client: parent.client,
		layer: layer, start: now,
	})
	return spanRef{id: len(t.spans), job: parent.job, client: parent.client}
}

// close ends the span r names.
func (t *tracer) close(r spanRef) {
	if t == nil || t.allocs != nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[r.id-1].end = now
	t.mu.Unlock()
}

// call runs f as one call into layer under the job span parent.
func (t *tracer) call(parent spanRef, layer string, f func() error) error {
	switch {
	case t == nil:
		return f()
	case t.allocs != nil:
		d := t.allocs[layer]
		if d == nil {
			d = &memDelta{}
			t.allocs[layer] = d
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f()
		runtime.ReadMemStats(&after)
		d.calls++
		d.allocs += after.Mallocs - before.Mallocs
		d.bytes += after.TotalAlloc - before.TotalAlloc
		return err
	}
	r := t.open(parent, layer)
	err := f()
	t.close(r)
	return err
}

// layerTimes sums, per layer, the spans' durations and self times. A
// span's self time is its duration minus the part of it that its child
// spans cover.
func layerTimes(spans []span) (total, self map[string]time.Duration) {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	total = make(map[string]time.Duration)
	self = make(map[string]time.Duration)
	for _, s := range spans {
		d := s.end - s.start
		total[s.layer] += d
		self[s.layer] += d - covered(s, children[s.id])
	}
	return total, self
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var sum time.Duration
	lo, hi := parent.start, parent.start
	for _, k := range kids {
		s, e := max(k.start, parent.start), min(k.end, parent.end)
		if e <= s {
			continue
		}
		if s > hi {
			sum += hi - lo
			lo = s
		}
		hi = max(hi, e)
	}
	return sum + hi - lo
}

// traceEvent is one Chrome trace-event ("X" complete event, or "M"
// metadata), the format Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON, one track per
// client.
func writeChrome(w io.Writer, spans []span) error {
	var evs []traceEvent
	for c := 0; c < clients; c++ {
		evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: c + 1,
			Args: map[string]any{"name": clientName(c)}})
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for _, s := range spans {
		evs = append(evs, traceEvent{
			Name: s.layer, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: s.client + 1,
			Args: map[string]any{"trace_id": s.job, "span_id": s.id, "parent_id": s.parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
