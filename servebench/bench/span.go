package bench

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of the benchmark's trace. Parent is the ID
// of the span that caused it (0 for a root); ReqID is the
// X-Semsim-Request value of the HTTP call it covers, if any.
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	ReqID  string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// Tracer keeps every span in memory until the run ends. A nil *Tracer
// records nothing, so untraced runs pay a nil check per call site. It is
// safe for concurrent use.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace whose span times count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Start opens a span and returns its ID (0 on a nil tracer).
func (t *Tracer) Start(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// End closes span id.
func (t *Tracer) End(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Record appends a finished span measured by the caller (an HTTP call
// timed from its due time, say). It returns the span's ID.
func (t *Tracer) Record(name string, parent int32, reqID string, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, ReqID: reqID,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return id
}

// Spans returns the recorded spans, ordered by ID.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// Write dumps the spans as JSON lines, once, at the end of a run.
func (t *Tracer) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SelfTimes returns each span's self time, aligned with spans: its
// duration minus the part of its interval that its children cover.
// Overlapping children are merged first, and child time outside the
// parent's interval does not count. Spans must carry IDs 1..len(spans)
// in order, as a Tracer assigns them.
func SelfTimes(spans []Span) []int64 {
	children := make(map[int32][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals clipped to
// the parent's.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// SpanStats aggregates the spans of one name.
type SpanStats struct {
	Count   int
	TotalNS int64 // sum of durations
	SelfNS  int64 // sum of self times
}

// MeanNS is the mean span duration in nanoseconds.
func (s SpanStats) MeanNS() float64 { return Ratio(float64(s.TotalNS), float64(s.Count)) }

// MeanSelfNS is the mean self time in nanoseconds.
func (s SpanStats) MeanSelfNS() float64 { return Ratio(float64(s.SelfNS), float64(s.Count)) }

// Aggregate groups spans by name. With parent non-empty only spans
// whose parent span carries that name count, which separates one call
// made from different phases (start-up versus commit, say).
func Aggregate(spans []Span, parent string) map[string]SpanStats {
	self := SelfTimes(spans)
	out := make(map[string]SpanStats)
	for i, s := range spans {
		if parent != "" && (s.Parent == 0 || spans[s.Parent-1].Name != parent) {
			continue
		}
		st := out[s.Name]
		st.Count++
		st.TotalNS += s.End - s.Start
		st.SelfNS += self[i]
		out[s.Name] = st
	}
	return out
}
