package mc

import (
	"math"
	"testing"

	"semsim/internal/hin"
	"semsim/internal/semantic"
	"semsim/internal/walk"
)

// allocEnv builds one shared workload: graph, walk index, and the three
// estimator configurations whose warm query paths must be allocation-free
// (map-warmed cache, dense cache, dense cache over a semantic kernel).
func allocEnv(t *testing.T) (ests map[string]*Estimator, n int) {
	t.Helper()
	n = 16
	g := randomGraph(23, n, 70, true)
	m := randomMeasure(24, n)
	ix, err := walk.Build(g, walk.Options{NumWalks: 60, Length: 8, Seed: 7})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	ests = make(map[string]*Estimator)

	mapCache := NewSOCache(g, m, 0.1)
	mapCache.Precompute()
	ests["map-warm"], err = New(ix, m, Options{C: 0.6, Theta: 0.05, Cache: mapCache})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	denseCache := NewSOCache(g, m, 0.1)
	if !denseCache.EnableDense(0, 2) {
		t.Fatal("EnableDense refused a tiny graph under the default budget")
	}
	ests["dense"], err = New(ix, m, Options{C: 0.6, Theta: 0.05, Cache: denseCache})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	k, err := semantic.NewKernel(m, n, semantic.KernelOptions{})
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	kCache := NewSOCache(g, k, 0.1)
	if !kCache.EnableDense(0, 1) {
		t.Fatal("EnableDense refused the kernel cache")
	}
	ests["dense+kernel"], err = New(ix, k, Options{C: 0.6, Theta: 0.05, Cache: kCache})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return ests, n
}

// TestQueryZeroAllocsWarm pins the tentpole's allocation contract: once
// the SO cache is warm, a single-pair Query performs zero heap
// allocations — on the map-striped cache, the dense table, and the dense
// table fed by a semantic kernel.
func TestQueryZeroAllocsWarm(t *testing.T) {
	ests, n := allocEnv(t)
	for name, e := range ests {
		// Warm every pair the measurement will touch (the map cache only
		// stores pairs above the cutoff at Precompute time; the rest are
		// recomputed per probe but still without allocating).
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				e.QueryCost(hin.NodeID(u), hin.NodeID(v), nil)
			}
		}
		u, v := hin.NodeID(1), hin.NodeID(2)
		if a := testing.AllocsPerRun(200, func() { e.QueryCost(u, v, nil) }); a != 0 {
			t.Errorf("%s: Query allocates %v per run, want 0", name, a)
		}
	}
}

// TestQueryBatchIntoZeroAllocsWarm: with a reused destination slice and
// serial scoring, the batch path inherits Query's zero-allocation
// property.
func TestQueryBatchIntoZeroAllocsWarm(t *testing.T) {
	ests, n := allocEnv(t)
	pairs := make([][2]hin.NodeID, 0, 8)
	for i := 0; i < 8; i++ {
		pairs = append(pairs, [2]hin.NodeID{hin.NodeID(i % n), hin.NodeID((i*5 + 1) % n)})
	}
	dst := make([]float64, len(pairs))
	for name, e := range ests {
		e.QueryBatchInto(dst, pairs, 1)
		if a := testing.AllocsPerRun(100, func() { e.QueryBatchInto(dst, pairs, 1) }); a != 0 {
			t.Errorf("%s: QueryBatchInto allocates %v per run, want 0", name, a)
		}
	}
}

// TestSOCacheDenseMatchesMap: the dense table is a pure representation
// change — every probe returns a value bit-identical to the map-warmed
// cache, stored-entry counts agree, and estimator scores are unchanged.
func TestSOCacheDenseMatchesMap(t *testing.T) {
	n := 14
	g := randomGraph(31, n, 60, true)
	m := randomMeasure(32, n)
	mapCache := NewSOCache(g, m, 0.3)
	mapCache.Precompute()
	denseCache := NewSOCache(g, m, 0.3)
	if !denseCache.EnableDense(0, 3) {
		t.Fatal("EnableDense refused")
	}
	if !denseCache.Dense() || mapCache.Dense() {
		t.Fatal("Dense() flags wrong")
	}
	if denseCache.Len() != n*(n+1)/2 {
		t.Fatalf("dense Len %d, want every pair (%d)", denseCache.Len(), n*(n+1)/2)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			a, b := hin.NodeID(u), hin.NodeID(v)
			got, _ := denseCache.SO(a, b)
			want, _ := mapCache.SO(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("SO(%d,%d): dense %v != map %v", u, v, got, want)
			}
		}
	}
	if s := denseCache.Summary(); s.Entries != denseCache.Len() || s.Hits == 0 {
		t.Fatalf("dense summary inconsistent: %+v", s)
	}
	if denseCache.MemoryBytes() <= 0 {
		t.Fatal("dense MemoryBytes not positive")
	}
}

// TestSOCacheDenseParallelIdentical: the parallel eager warm writes the
// same bytes as a single-worker warm — bit-for-bit over the whole
// triangular table.
func TestSOCacheDenseParallelIdentical(t *testing.T) {
	n := 23
	g := randomGraph(41, n, 90, true)
	m := randomMeasure(42, n)
	serial := NewSOCache(g, m, 0.2)
	if !serial.EnableDense(0, 1) {
		t.Fatal("EnableDense refused")
	}
	for _, workers := range []int{2, 4, 7} {
		par := NewSOCache(g, m, 0.2)
		if !par.EnableDense(0, workers) {
			t.Fatal("EnableDense refused")
		}
		sd, pd := serial.dense.Load(), par.dense.Load()
		for i := range sd.vals {
			if math.Float64bits(sd.vals[i]) != math.Float64bits(pd.vals[i]) {
				t.Fatalf("workers=%d: cell %d differs (%v vs %v)", workers, i, pd.vals[i], sd.vals[i])
			}
		}
	}
}

// TestSOCachePrecomputeParallelIdentical: the striped-map eager warm
// stores the same pair set with the same values regardless of worker
// count.
func TestSOCachePrecomputeParallelIdentical(t *testing.T) {
	n := 19
	g := randomGraph(51, n, 70, true)
	m := randomMeasure(52, n)
	serial := NewSOCache(g, m, 0.2)
	serial.PrecomputeParallel(1)
	par := NewSOCache(g, m, 0.2)
	par.PrecomputeParallel(5)
	if serial.Len() != par.Len() {
		t.Fatalf("stored %d pairs parallel, %d serial", par.Len(), serial.Len())
	}
	for i := range serial.shards {
		for k, v := range serial.shards[i].vals {
			pv, ok := par.shards[i].vals[k]
			if !ok || math.Float64bits(pv) != math.Float64bits(v) {
				t.Fatalf("shard %d key %x: parallel %v (present=%v), serial %v", i, k, pv, ok, v)
			}
		}
	}
}

// TestSOCacheDenseBudgetRefusal: a budget smaller than the table must
// leave the cache in map mode, untouched.
func TestSOCacheDenseBudgetRefusal(t *testing.T) {
	g := randomGraph(61, 10, 30, false)
	c := NewSOCache(g, semantic.Uniform{}, 0.1)
	if c.EnableDense(8, 1) {
		t.Fatal("EnableDense accepted an 8-byte budget")
	}
	if c.Dense() {
		t.Fatal("cache switched to dense despite refusal")
	}
}
