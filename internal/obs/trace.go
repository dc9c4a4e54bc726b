package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Trace records a tree-free sequence of named timed spans — the
// per-operation companion to the Registry's aggregates. Where a
// histogram answers "how slow are queries", a Trace answers "where did
// THIS build/query spend its time": each phase wraps its work in
// Start/End and the trace renders an aligned breakdown with durations
// and percentages.
//
// A Trace is cheap (one slice append per span, mutex-guarded so
// concurrent phases may record into one trace) but is not meant for
// per-walk-step granularity; spans are phase-level. It is also bounded:
// past MaxTraceSpans the newest span overwrites the oldest, as in the
// flight ring, and String and Export count the spans lost that way — a
// long-lived trace (serve's startup trace also collects every commit's
// backend spans) cannot grow without limit. A nil *Trace ignores all
// calls, so APIs can take an optional trace without branching at call
// sites.
type Trace struct {
	name    string
	t0      time.Time
	mu      sync.Mutex
	rec     []SpanRecord // a ring once full; next is then its oldest slot
	next    int
	dropped int64
}

// MaxTraceSpans is how many spans one Trace keeps: a build records
// about ten, a request a handful.
const MaxTraceSpans = 256

// SpanRecord is one finished span: Start is the offset from the trace's
// creation, Duration its measured length.
type SpanRecord struct {
	Name     string        `json:"name"`
	Start    time.Duration `json:"start_ns"`
	Duration time.Duration `json:"duration_ns"`
}

// Span is an in-flight span handle. End records it; a Span from a nil
// trace is inert. The zero Span is safe to End.
type Span struct {
	tr *Trace
	n  string
	t0 time.Time
}

// NewTrace starts an empty trace.
func NewTrace(name string) *Trace {
	return &Trace{name: name, t0: time.Now()}
}

// Name returns the trace's name ("" on nil).
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Start opens a span; the returned handle's End records it.
func (t *Trace) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{tr: t, n: name, t0: time.Now()}
}

// End closes the span and appends it to its trace.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	now := time.Now()
	rec := SpanRecord{Name: s.n, Start: s.t0.Sub(s.tr.t0), Duration: now.Sub(s.t0)}
	t := s.tr
	t.mu.Lock()
	if len(t.rec) < MaxTraceSpans {
		t.rec = append(t.rec, rec)
	} else {
		t.rec[t.next] = rec
		t.next = (t.next + 1) % MaxTraceSpans
		t.dropped++
	}
	t.mu.Unlock()
}

// Time runs fn inside a span — sugar for Start/End around a closure.
func (t *Trace) Time(name string, fn func()) {
	sp := t.Start(name)
	fn()
	sp.End()
}

// Spans returns the kept spans ordered by start offset (a copy; nil on
// a nil trace).
func (t *Trace) Spans() []SpanRecord {
	spans, _ := t.snapshot()
	return spans
}

// snapshot copies the kept spans, ordered by start offset, together
// with the dropped count of the same instant.
func (t *Trace) snapshot() ([]SpanRecord, int64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	out := make([]SpanRecord, len(t.rec))
	copy(out, t.rec)
	dropped := t.dropped
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out, dropped
}

// Export freezes the trace into its wire form: name, elapsed total, the
// kept spans and the count the span cap dropped, ready for json.Marshal
// or a TraceLog. Wall-clock and request identity are the caller's to
// stamp (serve knows the request ID; the trace does not). Returns the
// zero record on nil.
func (t *Trace) Export() TraceRecord {
	if t == nil {
		return TraceRecord{}
	}
	spans, dropped := t.snapshot()
	return TraceRecord{
		Name:    t.name,
		Total:   t.Total(),
		Spans:   spans,
		Dropped: dropped,
	}
}

// Total returns the elapsed time since the trace started (0 on nil).
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.t0)
}

// String renders the breakdown, one span per line with duration and
// share of the total elapsed time:
//
//	trace quickstart (total 12.3ms)
//	  walk-sample        8.1ms   65.9%
//	  sling-cache-init   1.2ms    9.8%
//	  ...
//
// A trace that hit MaxTraceSpans ends with a line counting the older
// spans it dropped.
func (t *Trace) String() string {
	if t == nil {
		return ""
	}
	spans, dropped := t.snapshot()
	total := t.Total()
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (total %s)\n", t.name, total.Round(time.Microsecond))
	width := 0
	for _, s := range spans {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	for _, s := range spans {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(s.Duration) / float64(total)
		}
		fmt.Fprintf(&b, "  %-*s  %10s  %5.1f%%\n",
			width, s.Name, s.Duration.Round(time.Microsecond), pct)
	}
	if dropped > 0 {
		fmt.Fprintf(&b, "  (%d older spans dropped)\n", dropped)
	}
	return b.String()
}
