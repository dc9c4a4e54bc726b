package mc

import (
	"sync"
	"sync/atomic"
	"testing"

	"semsim/internal/hin"
	"semsim/internal/semantic"
	"semsim/internal/walk"
)

// concurrencyEnv builds a shared cached estimator plus a serial oracle
// (same options, no cache, Workers=1) over one deterministic walk index.
func concurrencyEnv(t *testing.T, n int) (shared, oracle *Estimator, g *hin.Graph) {
	t.Helper()
	g = randomGraph(41, n, 4*n, true)
	m := randomMeasure(42, n)
	ix, err := walk.Build(g, walk.Options{NumWalks: 40, Length: 8, Seed: 7})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	cache := NewSOCache(g, m, 0.1)
	shared, err = New(ix, m, Options{C: 0.6, Theta: 0.05, Cache: cache, Workers: 8})
	if err != nil {
		t.Fatalf("New(shared): %v", err)
	}
	oracle, err = New(ix, m, Options{C: 0.6, Theta: 0.05, Workers: 1})
	if err != nil {
		t.Fatalf("New(oracle): %v", err)
	}
	return shared, oracle, g
}

// TestConcurrentQuerySharedCache hammers one cached estimator from 8
// goroutines and checks every result against the uncached serial oracle
// (cached and direct SO computations are bit-identical by construction).
func TestConcurrentQuerySharedCache(t *testing.T) {
	const n = 48
	shared, oracle, _ := concurrencyEnv(t, n)

	pairs := make([][2]hin.NodeID, 0, n*n/2)
	want := make([]float64, 0, n*n/2)
	for u := 0; u < n; u++ {
		for v := u; v < n; v += 2 {
			p := [2]hin.NodeID{hin.NodeID(u), hin.NodeID(v)}
			pairs = append(pairs, p)
			want = append(want, oracle.QueryCost(p[0], p[1], nil))
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine walks the whole pair set from a different
			// offset so cache fills race on overlapping keys.
			for i := range pairs {
				j := (i + w*len(pairs)/goroutines) % len(pairs)
				if got := shared.QueryCost(pairs[j][0], pairs[j][1], nil); got != want[j] {
					errs <- "concurrent Query diverged from serial oracle"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	s := shared.Cache().Summary()
	if s.Hits == 0 {
		t.Error("shared cache recorded no hits under concurrent load")
	}
	if s.Misses == 0 {
		t.Error("shared cache recorded no misses under concurrent load")
	}
}

// TestTopKParallelMatchesSerial checks the pooled TopK against a
// Workers=1 estimator over every source node.
func TestTopKParallelMatchesSerial(t *testing.T) {
	const n = 80 // > minCandidatesPerWorker so the pool actually splits
	shared, oracle, g := concurrencyEnv(t, n)
	if got := shared.scoringWorkers(n); got <= 1 {
		t.Fatalf("scoringWorkers(%d) = %d, parallel path not exercised", n, got)
	}
	for u := 0; u < g.NumNodes(); u += 5 {
		par := shared.TopKCost(hin.NodeID(u), 10, nil)
		ser := oracle.TopKCost(hin.NodeID(u), 10, nil)
		if len(par) != len(ser) {
			t.Fatalf("u=%d: parallel returned %d results, serial %d", u, len(par), len(ser))
		}
		for i := range par {
			if par[i] != ser[i] {
				t.Fatalf("u=%d rank %d: parallel %+v != serial %+v", u, i, par[i], ser[i])
			}
		}
	}
}

// TestSingleSourceParallelMatchesSerial checks pooled collision-group
// scoring against the serial estimator.
func TestSingleSourceParallelMatchesSerial(t *testing.T) {
	const n = 80
	shared, oracle, g := concurrencyEnv(t, n)
	meet := walk.BuildMeetIndex(shared.ix)
	for u := 0; u < g.NumNodes(); u += 7 {
		par := shared.SingleSourceCost(hin.NodeID(u), meet, nil)
		ser := oracle.SingleSourceCost(hin.NodeID(u), meet, nil)
		if len(par) != len(ser) {
			t.Fatalf("u=%d: parallel returned %d results, serial %d", u, len(par), len(ser))
		}
		for i := range par {
			if par[i] != ser[i] {
				t.Fatalf("u=%d entry %d: parallel %+v != serial %+v", u, i, par[i], ser[i])
			}
		}
	}
}

// TestQueryBatchSharedCache checks that the batched path (shared
// estimator, shared cache) reproduces per-pair serial queries and that
// consecutive batches reuse the warmed cache.
func TestQueryBatchSharedCache(t *testing.T) {
	const n = 48
	shared, oracle, _ := concurrencyEnv(t, n)
	pairs := make([][2]hin.NodeID, 0, n*n/4)
	for u := 0; u < n; u += 2 {
		for v := 1; v < n; v += 2 {
			pairs = append(pairs, [2]hin.NodeID{hin.NodeID(u), hin.NodeID(v)})
		}
	}
	got := shared.QueryBatch(pairs, 8)
	for i, p := range pairs {
		if want := oracle.QueryCost(p[0], p[1], nil); got[i] != want {
			t.Fatalf("pair %d (%d,%d): batch %v != serial %v", i, p[0], p[1], got[i], want)
		}
	}
	missesBefore := shared.Cache().Summary().Misses
	if again := shared.QueryBatch(pairs, 8); len(again) != len(got) {
		t.Fatalf("second batch returned %d results, want %d", len(again), len(got))
	}
	missesAfter := shared.Cache().Summary().Misses
	// randomMeasure only emits scores >= 0.1, so every SO probe of the
	// first batch was stored; an identical second batch must be served
	// entirely from the shared cache.
	if missesAfter != missesBefore {
		t.Errorf("second batch missed %d times — cache not shared across batches",
			missesAfter-missesBefore)
	}
}

// TestSOCacheConcurrent drives raw cache lookups from many goroutines:
// values must stay bit-identical to direct computation and the atomic
// counters must account for every probe, with the misses of a serial
// run.
func TestSOCacheConcurrent(t *testing.T) {
	const n = 32
	g := randomGraph(51, n, 4*n, true)
	measures := map[string]semantic.Measure{
		"random": randomMeasure(52, n),
		"kernel": newTestKernel(t, semantic.Lin{Tax: randomTaxonomy(t, 53, n)}, n),
	}
	for name, m := range measures {
		t.Run(name, func(t *testing.T) { soCacheConcurrent(t, g, m) })
	}
}

func soCacheConcurrent(t *testing.T, g *hin.Graph, m semantic.Measure) {
	n := g.NumNodes()
	cache := NewSOCache(g, m, 0.1)
	direct := NewSOCache(g, m, 0.1) // serial twin for expected values

	type probe struct {
		a, b hin.NodeID
		want float64
	}
	var probes []probe
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			a, b := hin.NodeID(u), hin.NodeID(v)
			so, _ := direct.SO(a, b)
			probes = append(probes, probe{a, b, so})
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	var bad atomic.Int64
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range probes {
				if so, _ := cache.SO(p.a, p.b); so != p.want {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d concurrent SO lookups diverged from serial values", bad.Load())
	}
	s := cache.Summary()
	if total := s.Hits + s.Misses; total != int64(goroutines*len(probes)) {
		t.Errorf("counters account for %d probes, want %d", total, goroutines*len(probes))
	}
	if cache.Len() != direct.Len() {
		t.Errorf("concurrent fill stored %d pairs, serial stored %d", cache.Len(), direct.Len())
	}
	// Racing misses of one pair count a single miss, as a serial run of
	// the same probes does.
	serial := NewSOCache(g, m, 0.1)
	for w := 0; w < goroutines; w++ {
		for _, p := range probes {
			serial.SO(p.a, p.b)
		}
	}
	if got, want := s.Misses, serial.Summary().Misses; got != want {
		t.Errorf("concurrent probes counted %d misses, a serial replay %d", got, want)
	}
}
