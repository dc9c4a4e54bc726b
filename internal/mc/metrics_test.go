package mc

import (
	"testing"

	"semsim/internal/hin"
	"semsim/internal/obs"
	"semsim/internal/walk"
)

// metricsEnv builds an instrumented cached estimator with a meet index
// over a deterministic random graph.
func metricsEnv(t *testing.T, n int, reg *obs.Registry) (*Estimator, *walk.MeetIndex, *hin.Graph) {
	t.Helper()
	g := randomGraph(71, n, 4*n, true)
	m := randomMeasure(72, n)
	ix, err := walk.Build(g, walk.Options{NumWalks: 40, Length: 8, Seed: 7, Metrics: reg})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	cache := NewSOCache(g, m, 0.1)
	// randomMeasure emits sem in (0.1, 1), so theta = 0.3 guarantees
	// both pruning modes fire: sem-skips and mid-walk caps.
	est, err := New(ix, m, Options{C: 0.6, Theta: 0.3, Cache: cache, Workers: 4, Metrics: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return est, walk.BuildMeetIndex(ix), g
}

// TestEstimatorMetricsPopulated drives every query path and checks that
// each series records, including the pruning counters and the lazy
// cache gauges.
func TestEstimatorMetricsPopulated(t *testing.T) {
	const n = 64
	reg := obs.NewRegistry()
	est, meet, _ := metricsEnv(t, n, reg)

	for u := 0; u < 8; u++ {
		for v := 0; v < n; v++ {
			est.QueryCost(hin.NodeID(u), hin.NodeID(v), nil)
		}
	}
	est.TopKCost(0, 5, nil)
	est.TopKSemBoundedCost(1, 5, nil)
	est.TopKWithIndexCost(2, 5, meet, nil)
	est.SingleSourceCost(3, meet, nil)
	pairs := [][2]hin.NodeID{{0, 1}, {2, 3}, {4, 5}}
	est.QueryBatch(pairs, 2)

	s := reg.Snapshot()
	for _, counter := range []string{
		"semsim_queries_total",
		"semsim_walks_coupled_total",
		"semsim_theta_sem_skips_total",
		"semsim_topk_total",
		"semsim_singlesource_total",
		"semsim_batch_total",
		"semsim_batch_pairs_total",
		"semsim_walks_sampled_total",
	} {
		if s.Counters[counter] == 0 {
			t.Errorf("counter %s = 0, want > 0", counter)
		}
	}
	if got := s.Counters["semsim_batch_pairs_total"]; got != int64(len(pairs)) {
		t.Errorf("batch pairs = %d, want %d", got, len(pairs))
	}
	// 3 top-k variants ran; each must have been counted and timed.
	if got := s.Counters["semsim_topk_total"]; got != 3 {
		t.Errorf("topk_total = %d, want 3", got)
	}
	for _, hist := range []string{
		"semsim_query_seconds",
		"semsim_topk_seconds",
		"semsim_topk_candidates",
		"semsim_singlesource_seconds",
		"semsim_singlesource_candidates",
		"semsim_batch_seconds",
		"semsim_walk_build_seconds",
	} {
		h, ok := s.Histograms[hist]
		if !ok || h.Count == 0 {
			t.Errorf("histogram %s empty", hist)
		}
	}
	// Queries counted = 8*n explicit + 3 batch pairs (Query entry
	// points only; top-k candidate probes are counted as candidates).
	if got, want := s.Counters["semsim_queries_total"], int64(8*n+len(pairs)); got != want {
		t.Errorf("queries_total = %d, want %d", got, want)
	}
	// Cache gauges are lazy GaugeFuncs over the shared SOCache; the
	// repeated scans above must have produced hits and a ratio.
	if s.Gauges["semsim_cache_hits_total"] == 0 {
		t.Error("cache hits gauge = 0 after repeated queries")
	}
	ratio := s.Gauges["semsim_cache_hit_ratio"]
	if ratio <= 0 || ratio > 1 {
		t.Errorf("cache hit ratio = %v, want (0,1]", ratio)
	}
	if s.Gauges["semsim_pool_active_workers"] != 0 {
		t.Errorf("pool gauge = %v after quiescence, want 0", s.Gauges["semsim_pool_active_workers"])
	}
	if s.Counters["semsim_pool_workers_spawned_total"] == 0 {
		t.Error("no pool workers recorded despite parallel TopK/batch")
	}
}

// TestMetricsDoNotChangeResults: the instrumented estimator must return
// bit-identical scores to an uninstrumented twin on the same walks.
func TestMetricsDoNotChangeResults(t *testing.T) {
	const n = 48
	g := randomGraph(73, n, 4*n, true)
	m := randomMeasure(74, n)
	ix, err := walk.Build(g, walk.Options{NumWalks: 40, Length: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(ix, m, Options{C: 0.6, Theta: 0.05, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := New(ix, m, Options{C: 0.6, Theta: 0.05, Workers: 1, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		for v := u; v < n; v++ {
			a, b := plain.QueryCost(hin.NodeID(u), hin.NodeID(v), nil), inst.QueryCost(hin.NodeID(u), hin.NodeID(v), nil)
			if a != b {
				t.Fatalf("(%d,%d): instrumented %v != plain %v", u, v, b, a)
			}
		}
	}
}

// TestQueryAllocFree: the single-pair hot path allocates nothing — with
// metrics disabled (the nil no-op contract) and with metrics enabled
// (obs instruments are allocation-free per observation).
func TestQueryAllocFree(t *testing.T) {
	const n = 48
	g := randomGraph(75, n, 4*n, true)
	m := randomMeasure(76, n)
	ix, err := walk.Build(g, walk.Options{NumWalks: 40, Length: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSOCache(g, m, 0.1)
	for name, opts := range map[string]Options{
		"disabled": {C: 0.6, Theta: 0.05, Cache: cache},
		"enabled":  {C: 0.6, Theta: 0.05, Cache: cache, Metrics: obs.NewRegistry()},
	} {
		est, err := New(ix, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		var u hin.NodeID
		allocs := testing.AllocsPerRun(200, func() {
			est.QueryCost(u%hin.NodeID(n), (u+3)%hin.NodeID(n), nil)
			u++
		})
		if allocs != 0 {
			t.Errorf("%s metrics: Query allocated %v per op, want 0", name, allocs)
		}
	}
}

// TestCacheSummaryCoherent checks the satellite fix: Summary aggregates
// once and derives the ratio from the same pass.
func TestCacheSummaryCoherent(t *testing.T) {
	const n = 32
	g := randomGraph(77, n, 4*n, true)
	m := randomMeasure(78, n)
	cache := NewSOCache(g, m, 0.1)
	if s := cache.Summary(); s.Hits != 0 || s.Misses != 0 || s.HitRatio != 0 || s.Entries != 0 {
		t.Fatalf("fresh cache summary not zero: %+v", s)
	}
	for round := 0; round < 2; round++ {
		for u := 0; u < n; u++ {
			cache.SO(hin.NodeID(u), hin.NodeID((u+1)%n))
		}
	}
	s := cache.Summary()
	if s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("summary counters empty: %+v", s)
	}
	want := float64(s.Hits) / float64(s.Hits+s.Misses)
	if s.HitRatio != want {
		t.Errorf("HitRatio = %v, want %v", s.HitRatio, want)
	}
	if s.Entries != cache.Len() {
		t.Errorf("Entries = %d, Len = %d", s.Entries, cache.Len())
	}
}
