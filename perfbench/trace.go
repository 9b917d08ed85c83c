package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of the program.
// Spans of one request share Op; Parent names the span that caused this
// one (0 for a root). Start and End are nanoseconds since the tracer was
// created.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call, so the untraced run pays
// no tracing cost.
type Tracer struct {
	on bool
	t0 time.Time

	mu     sync.Mutex
	spans  []Span           // guarded by mu; span ID i is spans[i-1]
	counts map[string]int64 // guarded by mu
}

func newTracer(on bool) *Tracer {
	return &Tracer{on: on, t0: time.Now(), counts: make(map[string]int64)}
}

// Count adds n to the named counter.
func (t *Tracer) Count(name string, n int64) {
	if t == nil || !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] += n
}

// Counter returns the named counter.
func (t *Tracer) Counter(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// Begin opens a span starting now and returns its ID (0 when disabled).
func (t *Tracer) Begin(name string, parent, op int64) int64 {
	return t.BeginAt(name, parent, op, time.Now())
}

// BeginAt opens a span starting at start, which may lie in the past: a
// request's span starts at its due time, not at its send time.
func (t *Tracer) BeginAt(name string, parent, op int64, start time.Time) int64 {
	if t == nil || !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(start.Sub(t.t0))})
	return id
}

// End closes span id now.
func (t *Tracer) End(id int64) { t.EndAt(id, time.Now()) }

// EndAt closes span id at end.
func (t *Tracer) EndAt(id int64, end time.Time) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(end.Sub(t.t0))
}

// Time runs fn inside a root span and returns fn's duration.
func (t *Tracer) Time(name string, fn func()) time.Duration { return t.TimeIn(name, 0, fn) }

// TimeIn runs fn inside a child span of parent and returns fn's duration.
func (t *Tracer) TimeIn(name string, parent int64, fn func()) time.Duration {
	id := t.Begin(name, parent, 0)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.End(id)
	return d
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines, one span per line.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing span file: %w", err)
	}
	return nil
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that the union of its direct children
// covers. Children may overlap each other (concurrent calls) and may
// extend past their parent; only the covered part inside the parent
// counts, and grandchildren are already inside their own parent.
func selfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, cur := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.Dur() - covered
	}
	return out
}

// spanStats gathers per-name figures from a span list.
type spanStats struct {
	spans []Span
	self  map[int64]int64
}

func newSpanStats(spans []Span) *spanStats {
	return &spanStats{spans: spans, self: selfTimes(spans)}
}

// durs returns the durations of the spans named name, in nanoseconds.
func (st *spanStats) durs(name string) []float64 {
	var out []float64
	for _, s := range st.spans {
		if s.Name == name {
			out = append(out, float64(s.Dur()))
		}
	}
	return out
}

// selfs returns the self times of the spans named name, in nanoseconds.
func (st *spanStats) selfs(name string) []float64 {
	var out []float64
	for _, s := range st.spans {
		if s.Name == name {
			out = append(out, float64(st.self[s.ID]))
		}
	}
	return out
}

// count returns how many spans are named name.
func (st *spanStats) count(name string) int { return len(st.durs(name)) }

// p returns the nearest-rank q-quantile of the durations of spans named
// name, scaled by unit; 0 when there is no such span.
func (st *spanStats) p(name string, q float64, unit time.Duration) float64 {
	d := st.durs(name)
	if len(d) == 0 {
		return 0
	}
	return percentile(d, q) / float64(unit)
}

// total returns the summed duration of spans named name, scaled by unit.
func (st *spanStats) total(name string, unit time.Duration) float64 {
	return sum(st.durs(name)) / float64(unit)
}
