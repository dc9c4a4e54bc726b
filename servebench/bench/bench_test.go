package bench

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestReadsSameSeedSameSequence(t *testing.T) {
	for _, w := range Workloads {
		a, b, c := NewReads(w, 7), NewReads(w, 7), NewReads(w, 8)
		differs := false
		for i := 0; i < 2000; i++ {
			x, y, z := a.Next(), b.Next(), c.Next()
			if x != y {
				t.Fatalf("%s: read %d differs for one seed: %+v vs %+v", w, i, x, y)
			}
			differs = differs || x != z
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same 2000 reads", w)
		}
	}
}

func TestReadMix(t *testing.T) {
	rs := NewReads(Pair, 1)
	for i := 0; i < 100; i++ {
		rd := rs.Next()
		want := "/query"
		if i%ExplainEvery == ExplainEvery-1 {
			want = "/explain"
		}
		if rd.Endpoint != want || rd.U == rd.V {
			t.Fatalf("pair read %d = %+v, want %s on two distinct items", i, rd, want)
		}
	}
	if got := NewReads(TopK, 1).Next().Path(); !strings.HasPrefix(got, "/topk?u=item-") || !strings.HasSuffix(got, "&k=10") {
		t.Errorf("topk path %q", got)
	}
}

func TestRepeatShareContrast(t *testing.T) {
	pair, topk := RepeatShare(Pair, 1, 20000), RepeatShare(TopK, 1, 20000)
	if !(pair < 0.05 && topk > 0.9) {
		t.Errorf("repeat share pair %.3f topk %.3f: want uniform pairs to share little and Zipf sources much", pair, topk)
	}
}

func TestBatchesSameSeedSameSequence(t *testing.T) {
	cats := []string{"cat", "cat/cat-0", "cat/cat-1"}
	a, b := NewBatches(3, cats), NewBatches(3, cats)
	for j := 0; j < 12; j++ {
		x, y := a.Next(), b.Next()
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("batch %d differs for one seed:\n%+v\n%+v", j, x, y)
		}
		if x.Ops[0].Op != "add_node" || x.Ops[0].Name != "bench-"+strconv.Itoa(j) {
			t.Errorf("batch %d starts with %+v, want add_node bench-%d", j, x.Ops[0], j)
		}
		count := map[string]int{}
		for _, op := range x.Ops {
			count[op.Op]++
		}
		wantRemove := 0
		if j >= RemoveAfter {
			wantRemove = 1
		}
		wantConcept := 0
		if j%ConceptEvery == ConceptEvery-1 {
			wantConcept = 1
		}
		if count["add_edge"] != 3 || count["remove_edge"] != wantRemove || count["update_concept_freq"] != wantConcept {
			t.Errorf("batch %d ops %v", j, count)
		}
	}
	if reflect.DeepEqual(NewBatches(3, cats).Next(), NewBatches(4, cats).Next()) {
		t.Error("seeds 3 and 4 gave the same first batch")
	}
}

func TestRemoveTakesOldestWeightedEdge(t *testing.T) {
	b := NewBatches(5, nil)
	var added []Op
	for j := 0; j < RemoveAfter+3; j++ {
		batch := b.Next()
		added = append(added, batch.Ops[3])
		if j < RemoveAfter {
			continue
		}
		rm := batch.Ops[4]
		old := added[j-RemoveAfter]
		if rm.Op != "remove_edge" || rm.From != old.From || rm.To != old.To {
			t.Fatalf("batch %d removes %+v, want the edge added %d batches earlier %+v", j, rm, RemoveAfter, old)
		}
	}
}

func TestPlanPhases(t *testing.T) {
	p, err := PlanPhases(Pair, 20)
	if err != nil || p.MeasReads != 20*pairRate || p.Blocks != 20 || p.ProbeBatches != 1 {
		t.Errorf("pair phases %+v %v", p, err)
	}
	var aux []int
	for b := 0; b < p.Blocks; b++ {
		if p.AuxBefore(b) {
			aux = append(aux, b)
		}
	}
	if want := []int{4, 8, 12, 16}; !reflect.DeepEqual(aux, want) {
		t.Errorf("aux rounds before blocks %v, want %v", aux, want)
	}
	k, err := PlanPhases(TopK, 30)
	if err != nil || k.MeasReads != 30*topkRate || k.MeasReads/k.Blocks != 1200 {
		t.Errorf("topk phases %+v %v", k, err)
	}
	for _, w := range []string{"nope", "churn"} {
		if _, err := PlanPhases(w, 10); err == nil {
			t.Errorf("workload %q accepted", w)
		}
	}
	if _, err := PlanPhases(TopK, 0); err == nil {
		t.Error("zero seconds accepted")
	}
}

func TestHostReference(t *testing.T) {
	if a, b := cpuSteps(1000), cpuSteps(1000); a != b {
		t.Fatalf("CPU reference work not deterministic: %d vs %d", a, b)
	}
	if d := CPUUnit(); d <= 0 {
		t.Fatalf("CPUUnit = %v", d)
	}
	ms := func(xs ...int) []time.Duration {
		var ds []time.Duration
		for _, x := range xs {
			ds = append(ds, time.Duration(x)*time.Millisecond)
		}
		return ds
	}
	if got := MedianDuration(ms(9, 1, 5)); got != 5*time.Millisecond {
		t.Errorf("MedianDuration odd = %v", got)
	}
	if got := MedianDuration(ms(9, 1, 5, 3)); got != 4*time.Millisecond {
		t.Errorf("MedianDuration even = %v", got)
	}
	if got := MedianDuration(nil); got != 0 {
		t.Errorf("MedianDuration(nil) = %v", got)
	}
	// A host at half speed doubles both the measured time and the
	// reference time; the reported values do not move.
	nominal := 4 * time.Millisecond
	slow := 2 * nominal
	if got := AtRef(3.0, slow, nominal); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("AtRef(3 ms, 2x slow host) = %v, want 1.5", got)
	}
	if got := AtRef(2.5, nominal, nominal); got != 2.5 {
		t.Errorf("AtRef at the reference speed = %v, want 2.5", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.99, 9.91}, {1, 10}, {0.25, 3.25}}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile")
	}
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("Median = %v", got)
	}
	if got := Beyond(xs, Quantile(xs, 0.99)); got != 1 {
		t.Errorf("Beyond p99 = %d, want 1", got)
	}
}

func TestScrapeDeltas(t *testing.T) {
	const before = `# HELP semsim_http_request_seconds End-to-end latency.
# TYPE semsim_http_request_seconds histogram
semsim_http_request_seconds_bucket{le="0.001"} 10
semsim_http_request_seconds_sum 0.5
semsim_http_request_seconds_count 10
semsim_plan_total{strategy="sem-bounded"} 1
semsim_build_info{backend="mc",go="go 1.24"} 1
`
	const after = `semsim_http_request_seconds_sum 2.5
semsim_http_request_seconds_count 110
semsim_plan_total{strategy="sem-bounded"} 41
semsim_plan_total{strategy="brute"} 3
`
	b, err := ParseScrape(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	a, err := ParseScrape(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	if v := b[`semsim_build_info{backend="mc",go="go 1.24"}`]; v != 1 {
		t.Errorf("label value with a space: %v", v)
	}
	if d := Delta(b, a, `semsim_plan_total{strategy="sem-bounded"}`); d != 40 {
		t.Errorf("delta = %v, want 40", d)
	}
	if d := Delta(b, a, `semsim_plan_total{strategy="brute"}`); d != 3 {
		t.Errorf("delta of a series new in after = %v, want 3", d)
	}
	if m := HistMean(b, a, "semsim_http_request_seconds"); math.Abs(m-0.02) > 1e-12 {
		t.Errorf("HistMean = %v, want 2.0/100", m)
	}
	if m := HistMean(a, a, "semsim_http_request_seconds"); m != 0 {
		t.Errorf("HistMean without observations = %v", m)
	}
}

func TestSelfTimes(t *testing.T) {
	// root 0..100 with children 10..30 and 20..50 (overlapping) and
	// 90..120 (sticking out); the first child has a grandchild 12..18.
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 18},
	}
	got := SelfTimes(spans)
	want := []int64{100 - (40 + 10), 20 - 6, 30, 30, 6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SelfTimes = %v, want %v", got, want)
	}
	agg := Aggregate(spans, "")
	if s := agg["root"]; s.Count != 1 || s.TotalNS != 100 || s.SelfNS != 50 {
		t.Errorf("root aggregate %+v", s)
	}
	under := Aggregate(spans, "a")
	if len(under) != 1 || under["d"].Count != 1 {
		t.Errorf("Aggregate under a = %+v, want only d", under)
	}
}

func TestTracer(t *testing.T) {
	var off *Tracer
	if id := off.Start("x", 0); id != 0 {
		t.Errorf("nil tracer span id %d", id)
	}
	off.End(0)
	tr := NewTracer()
	p := tr.Start("parent", 0)
	c := tr.Start("child", p)
	tr.End(c)
	tr.End(p)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != p || spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Errorf("spans %+v", spans)
	}
}
