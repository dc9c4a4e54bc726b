package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestHistogramNegativeObserve: negative observations (possible from
// clock skew in duration measurements) clamp to 0 — they land in the
// first bucket and add nothing to the sum, instead of corrupting the
// cumulative-count invariant or driving Sum negative.
func TestHistogramNegativeObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{0.5, 1})
	h.Observe(-3)
	h.Observe(-0.0001)
	h.Observe(0.75)

	s := r.Snapshot().Histograms["h"]
	if s.Count != 3 {
		t.Fatalf("Count = %d, want 3", s.Count)
	}
	if s.Sum != 0.75 {
		t.Errorf("Sum = %v, want 0.75 (negatives clamp to 0)", s.Sum)
	}
	if got := s.Buckets[0].CumCount; got != 2 {
		t.Errorf("first bucket holds %d observations, want the 2 clamped negatives", got)
	}
	var prev int64
	for _, b := range s.Buckets {
		if b.CumCount < prev {
			t.Fatalf("cumulative counts decreased after negative observes: %+v", s.Buckets)
		}
		prev = b.CumCount
	}
}

// TestEmptyTraceString: a trace with no recorded spans renders its
// header without panicking, and a nil trace renders as "".
func TestEmptyTraceString(t *testing.T) {
	tr := NewTrace("empty")
	out := tr.String()
	if !strings.Contains(out, "trace empty") {
		t.Errorf("empty trace String() = %q, want header mentioning the name", out)
	}
	if tr.Total() < 0 {
		t.Errorf("empty trace Total() = %v, want >= 0", tr.Total())
	}
	var nilTrace *Trace
	if got := nilTrace.String(); got != "" {
		t.Errorf("nil trace String() = %q, want empty", got)
	}
	// The zero Span (from a nil trace) is inert.
	nilTrace.Start("phase").End()
	nilTrace.Time("phase", func() {})
}

// TestTraceStringDuringRecording: String/Spans may race with concurrent
// span recording (the debug server renders in-flight build traces);
// both must stay consistent under -race. The writers record a fixed
// number of spans — past MaxTraceSpans, so renders also interleave with
// the ring overwriting its oldest slots — and the trace ends at its cap
// with every overwritten span counted.
func TestTraceStringDuringRecording(t *testing.T) {
	const writers, perWriter = 4, MaxTraceSpans
	tr := NewTrace("live")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Time("work", func() {})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for recording := true; recording; {
		select {
		case <-done:
			recording = false
		default:
		}
		if out := tr.String(); !strings.Contains(out, "trace live") {
			t.Fatalf("String() lost the header mid-recording: %q", out)
		}
		if n := len(tr.Spans()); n > MaxTraceSpans {
			t.Fatalf("trace holds %d spans, above its cap %d", n, MaxTraceSpans)
		}
	}
	total := int64(writers * perWriter)
	if n := len(tr.Spans()); n != MaxTraceSpans {
		t.Errorf("trace kept %d spans, want the cap %d", n, MaxTraceSpans)
	}
	if d := tr.Export().Dropped; d != total-MaxTraceSpans {
		t.Errorf("Export().Dropped = %d, want %d", d, total-MaxTraceSpans)
	}
}

// TestTraceSpanCap: past MaxTraceSpans the newest spans overwrite the
// oldest, and String and Export both report how many were dropped.
func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("capped")
	for i := 0; i < MaxTraceSpans; i++ {
		tr.Time("early", func() {})
	}
	if tr.Export().Dropped != 0 || strings.Contains(tr.String(), "dropped") {
		t.Fatalf("a trace at its cap reports drops: %d", tr.Export().Dropped)
	}
	const extra = 10
	for i := 0; i < extra; i++ {
		tr.Time("late", func() {})
	}
	spans := tr.Spans()
	if len(spans) != MaxTraceSpans {
		t.Fatalf("kept %d spans, want %d", len(spans), MaxTraceSpans)
	}
	late := 0
	for i, s := range spans {
		if s.Name == "late" {
			late++
		}
		if i > 0 && s.Start < spans[i-1].Start {
			t.Fatalf("spans out of start order at %d", i)
		}
	}
	if late != extra {
		t.Errorf("kept %d of the %d newest spans", late, extra)
	}
	if !strings.Contains(tr.String(), "(10 older spans dropped)") {
		t.Errorf("String() does not report the drops:\n%s", tr.String())
	}
	if rec := tr.Export(); rec.Dropped != extra || len(rec.Spans) != MaxTraceSpans {
		t.Errorf("Export() = %d spans, %d dropped; want %d, %d",
			len(rec.Spans), rec.Dropped, MaxTraceSpans, extra)
	}
}
