package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the le semantics: an observation
// equal to a bound lands in that bound's bucket, one epsilon above
// spills into the next, and everything beyond the last bound lands in
// +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 2.1, 5.0, 5.0001, 100} {
		h.Observe(v)
	}
	s := h.snapshot()
	// Cumulative: le=1 -> {0.5, 1.0}; le=2 -> +{1.5, 2.0}; le=5 ->
	// +{2.1, 5.0}; +Inf -> +{5.0001, 100}.
	wantCum := []int64{2, 4, 6, 8}
	if len(s.Buckets) != len(wantCum) {
		t.Fatalf("bucket count = %d, want %d", len(s.Buckets), len(wantCum))
	}
	for i, want := range wantCum {
		if s.Buckets[i].CumCount != want {
			t.Errorf("bucket %d (le=%v): cum = %d, want %d",
				i, s.Buckets[i].LE, s.Buckets[i].CumCount, want)
		}
	}
	if !math.IsInf(s.Buckets[3].LE, 1) {
		t.Errorf("last bucket bound = %v, want +Inf", s.Buckets[3].LE)
	}
	if s.Count != 8 {
		t.Errorf("count = %d, want 8", s.Count)
	}
	wantSum := 0.5 + 1 + 1.5 + 2 + 2.1 + 5 + 5.0001 + 100
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
}

// TestHistogramBoundsNormalized checks that unsorted, duplicated bounds
// are sorted and deduplicated at construction.
func TestHistogramBoundsNormalized(t *testing.T) {
	h := newHistogram([]float64{5, 1, 2, 2, 1})
	if len(h.bounds) != 3 || h.bounds[0] != 1 || h.bounds[1] != 2 || h.bounds[2] != 5 {
		t.Fatalf("bounds = %v, want [1 2 5]", h.bounds)
	}
}

// TestHistogramQuantiles checks interpolation on a known uniform fill.
func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	// 1000 observations uniform over (0, 100].
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 0.1)
	}
	s := h.snapshot()
	checks := []struct{ q, want, tol float64 }{
		{0.50, 50, 1}, {0.95, 95, 1}, {0.99, 99, 1}, {0, 0, 1}, {1, 100, 0.001},
	}
	for _, c := range checks {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > c.tol {
			t.Errorf("Quantile(%v) = %v, want %v +- %v", c.q, got, c.want, c.tol)
		}
	}
	if !(s.P50 <= s.P95 && s.P95 <= s.P99) {
		t.Errorf("percentiles not monotone: p50=%v p95=%v p99=%v", s.P50, s.P95, s.P99)
	}
	// Everything in the overflow bucket: quantiles clamp to the largest
	// finite bound rather than returning +Inf.
	over := newHistogram([]float64{1})
	over.Observe(50)
	if got := over.snapshot().Quantile(0.5); got != 1 {
		t.Errorf("overflow quantile = %v, want clamp to 1", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty-histogram quantile = %v, want 0", got)
	}
}

// TestConcurrentInstruments hammers one counter, gauge and histogram
// from many goroutines (run under -race by ci tier 2) and checks the
// totals are exact afterwards.
func TestConcurrentInstruments(t *testing.T) {
	const goroutines = 8
	const perG = 10000
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{0.25, 0.5, 0.75})

	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%perG) / perG)
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0 after balanced adds", got)
	}
	s := h.snapshot()
	if s.Count != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", s.Count, goroutines*perG)
	}
	// Snapshot consistency: the last cumulative bucket must equal the
	// total count, and the sum must match the closed-form total.
	if last := s.Buckets[len(s.Buckets)-1].CumCount; last != s.Count {
		t.Errorf("cumulative tail %d != count %d", last, s.Count)
	}
	wantSum := float64(goroutines) * float64(perG-1) * float64(perG) / 2 / perG
	if math.Abs(s.Sum-wantSum) > 1e-6*wantSum {
		t.Errorf("sum = %v, want %v (atomic float adds lost updates?)", s.Sum, wantSum)
	}
}

// TestSnapshotDuringWrites takes snapshots while writers are running:
// every snapshot must be internally monotone (cumulative buckets
// non-decreasing, tail == count) even though it races observations.
func TestSnapshotDuringWrites(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{0.5})
	c := r.Counter("c", "")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(0.25)
					h.Observe(0.75)
					c.Inc()
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		s := r.Snapshot()
		hs := s.Histograms["h"]
		var prev int64
		for _, b := range hs.Buckets {
			if b.CumCount < prev {
				t.Fatalf("cumulative buckets decreased: %+v", hs.Buckets)
			}
			prev = b.CumCount
		}
		if hs.Count != prev {
			t.Fatalf("count %d != cumulative tail %d", hs.Count, prev)
		}
	}
	close(stop)
	wg.Wait()
}

// TestDisabledInstrumentsAllocateNothing is the ISSUE's no-op contract:
// with metrics disabled (nil registry, nil instruments, nil trace) the
// hot-path calls perform zero allocations.
func TestDisabledInstrumentsAllocateNothing(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", nil)
	var tr *Trace
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil instruments")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		g.Add(-1)
		t0 := h.Start()
		h.Observe(0.5)
		h.ObserveSince(t0)
		h.ObserveDuration(time.Millisecond)
		sp := tr.Start("phase")
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled instruments allocated %v per run, want 0", allocs)
	}
}

// TestEnabledHotPathAllocateNothing: live counters and histograms must
// also be allocation-free per observation (registration is the only
// allocating step).
func TestEnabledHotPathAllocateNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", nil)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(1)
		t0 := h.Start()
		h.ObserveSince(t0)
	})
	if allocs != 0 {
		t.Errorf("enabled instruments allocated %v per run, want 0", allocs)
	}
}

// TestRegistryIdempotentRegistration: same name, same instrument.
func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x", "a") != r.Counter("x", "b") {
		t.Error("Counter not idempotent by name")
	}
	if r.Gauge("y", "") != r.Gauge("y", "") {
		t.Error("Gauge not idempotent by name")
	}
	if r.Histogram("z", "", []float64{1}) != r.Histogram("z", "", []float64{2}) {
		t.Error("Histogram not idempotent by name")
	}
}

// TestGaugeFuncEvaluatedAtExport: the function runs at snapshot time,
// not registration time.
func TestGaugeFuncEvaluatedAtExport(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.GaugeFunc("f", "", func() float64 { return v })
	v = 42
	if got := r.Snapshot().Gauges["f"]; got != 42 {
		t.Errorf("GaugeFunc snapshot = %v, want 42", got)
	}
}

// TestWriteText checks the Prometheus exposition shape.
func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("semsim_queries_total", "queries").Add(5)
	r.Gauge("semsim_workers", "pool").Set(3)
	r.GaugeFunc("semsim_ratio", "ratio", func() float64 { return 0.5 })
	r.Histogram("semsim_lat_seconds", "latency", []float64{0.1, 1}).Observe(0.05)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE semsim_queries_total counter",
		"semsim_queries_total 5",
		"# TYPE semsim_workers gauge",
		"semsim_workers 3",
		"semsim_ratio 0.5",
		"# TYPE semsim_lat_seconds histogram",
		`semsim_lat_seconds_bucket{le="0.1"} 1`,
		`semsim_lat_seconds_bucket{le="+Inf"} 1`,
		"semsim_lat_seconds_sum 0.05",
		"semsim_lat_seconds_count 1",
		"# HELP semsim_queries_total queries",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	var nilReg *Registry
	b.Reset()
	if err := nilReg.WriteText(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil registry exposition: err=%v len=%d, want empty", err, b.Len())
	}
}

// TestSnapshotJSONRoundTrip: snapshots (including the +Inf bucket) must
// survive encoding/json both ways — expvar publishes through it.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "").Inc()
	r.Histogram("h", "", []float64{1, 2}).Observe(1.5)
	s := r.Snapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("snapshot not marshalable: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("snapshot not unmarshalable: %v", err)
	}
	hb := back.Histograms["h"].Buckets
	if len(hb) != 3 || !math.IsInf(hb[2].LE, 1) {
		t.Fatalf("round-tripped buckets = %+v, want 3 with +Inf tail", hb)
	}
	if hb[1].CumCount != 1 {
		t.Errorf("le=2 cum = %d, want 1", hb[1].CumCount)
	}
	if back.Counters["c"] != 1 {
		t.Errorf("counter round-trip = %d, want 1", back.Counters["c"])
	}
}

// TestNilRegistrySnapshot: nil registries yield empty, indexable maps.
func TestNilRegistrySnapshot(t *testing.T) {
	var r *Registry
	s := r.Snapshot()
	if s.Counters == nil || s.Gauges == nil || s.Histograms == nil {
		t.Fatal("nil registry snapshot has nil maps")
	}
	if s.Counters["anything"] != 0 {
		t.Fatal("unexpected value in empty snapshot")
	}
}

// TestTrace checks span recording, ordering and rendering.
func TestTrace(t *testing.T) {
	tr := NewTrace("build")
	sp := tr.Start("phase-a")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	tr.Time("phase-b", func() { time.Sleep(time.Millisecond) })

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "phase-a" || spans[1].Name != "phase-b" {
		t.Errorf("span order = %s, %s", spans[0].Name, spans[1].Name)
	}
	if spans[0].Duration < time.Millisecond {
		t.Errorf("phase-a duration = %v, want >= 1ms", spans[0].Duration)
	}
	if spans[1].Start < spans[0].Start {
		t.Error("spans not ordered by start offset")
	}
	out := tr.String()
	if !strings.Contains(out, "trace build") || !strings.Contains(out, "phase-a") || !strings.Contains(out, "%") {
		t.Errorf("trace rendering incomplete:\n%s", out)
	}

	var nilTr *Trace
	nilTr.Start("x").End()
	nilTr.Time("y", func() {})
	if nilTr.Spans() != nil || nilTr.String() != "" || nilTr.Total() != 0 || nilTr.Name() != "" {
		t.Error("nil trace is not inert")
	}
}

// TestTraceConcurrentSpans: concurrent phases may record into one trace.
func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("parallel")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.Start("worker")
			sp.End()
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 8 {
		t.Errorf("recorded %d spans, want 8", got)
	}
}

// TestSpanRecordJSONRoundTrip: a span (the public TraceSpan) marshals its
// offsets as integer nanoseconds and round-trips unchanged.
func TestSpanRecordJSONRoundTrip(t *testing.T) {
	in := SpanRecord{Name: "resolve", Start: 1500 * time.Nanosecond, Duration: 2 * time.Microsecond}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	// Durations must serialize as integer nanoseconds under the _ns keys.
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("unmarshal raw: %v", err)
	}
	if got := raw["start_ns"].(float64); got != 1500 {
		t.Fatalf("start_ns = %v, want 1500", got)
	}
	if got := raw["duration_ns"].(float64); got != 2000 {
		t.Fatalf("duration_ns = %v, want 2000", got)
	}
	var out SpanRecord
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

// TestPublishExpvar: publishing is guarded against duplicates and the
// published value tracks the live registry.
func TestPublishExpvar(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	r.PublishExpvar("obs_test_registry")
	r.PublishExpvar("obs_test_registry") // second call must not panic
	c.Add(3)
	// Another registry must not displace (or panic on) the taken name.
	NewRegistry().PublishExpvar("obs_test_registry")
}
