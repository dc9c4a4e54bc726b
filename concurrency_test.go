package semsim_test

// Concurrency stress tests for the public query surface: many goroutines
// hammer one cached Index and every result is checked against a serial
// oracle computed up front. Run with -race; the suite is the executable
// form of the package's concurrency contract (one Index, any number of
// callers, identical results).

import (
	"fmt"
	"sync"
	"testing"

	"semsim"
	"semsim/internal/datagen"
)

// stressIndex builds one cached, meet-indexed Index over a deterministic
// synthetic dataset.
func stressIndex(t *testing.T) (*semsim.Index, *datagen.Dataset) {
	t.Helper()
	d, err := datagen.Amazon(datagen.AmazonConfig{Items: 120, Seed: 33})
	if err != nil {
		t.Fatalf("datagen.Amazon: %v", err)
	}
	idx, err := semsim.BuildIndex(d.Graph, d.Lin, semsim.IndexOptions{
		NumWalks: 40, WalkLength: 8, C: 0.6, Theta: 0.05,
		SLINGCutoff: 0.1, Seed: 5, MeetIndex: true, Workers: 8,
	})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	return idx, d
}

// TestIndexConcurrentStress runs 8 goroutines of mixed Query / TopK /
// SingleSource / BatchQuery traffic against one shared cached Index and
// compares every answer to serial results captured before the storm.
func TestIndexConcurrentStress(t *testing.T) {
	idx, d := stressIndex(t)
	n := d.Graph.NumNodes()

	// Serial oracle, computed single-threaded before any concurrency.
	queryPairs := make([][2]semsim.NodeID, 0, 256)
	for i := 0; i < 256; i++ {
		queryPairs = append(queryPairs,
			[2]semsim.NodeID{semsim.NodeID(i * 5 % n), semsim.NodeID((i*11 + 3) % n)})
	}
	wantQuery := make([]float64, len(queryPairs))
	for i, p := range queryPairs {
		wantQuery[i] = idx.Query(p[0], p[1])
	}
	sources := []semsim.NodeID{0, 7, 19, 42, 63, semsim.NodeID(n - 1)}
	wantTopK := make([][]semsim.Scored, len(sources))
	wantSS := make([][]semsim.Scored, len(sources))
	for i, u := range sources {
		wantTopK[i] = idx.TopK(u, 10)
		ss, err := idx.SingleSource(u)
		if err != nil {
			t.Fatalf("SingleSource(%d): %v", u, err)
		}
		wantSS[i] = ss
	}

	const goroutines = 10
	const rounds = 3
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	fail := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch (w + r) % 4 {
				case 0: // single-pair traffic
					for i, p := range queryPairs {
						if got := idx.Query(p[0], p[1]); got != wantQuery[i] {
							fail("Query(%d,%d) = %v, serial %v", p[0], p[1], got, wantQuery[i])
							return
						}
					}
				case 1: // top-k traffic
					for i, u := range sources {
						if !scoredEqual(idx.TopK(u, 10), wantTopK[i]) {
							fail("TopK(%d) diverged from serial run", u)
							return
						}
					}
				case 2: // single-source traffic
					for i, u := range sources {
						got, err := idx.SingleSource(u)
						if err != nil {
							fail("SingleSource(%d): %v", u, err)
							return
						}
						if !scoredEqual(got, wantSS[i]) {
							fail("SingleSource(%d) diverged from serial run", u)
							return
						}
					}
				case 3: // batched traffic
					got, err := idx.BatchQuery(queryPairs, 4)
					if err != nil {
						fail("BatchQuery: %v", err)
						return
					}
					for i := range got {
						if got[i] != wantQuery[i] {
							fail("BatchQuery[%d] = %v, serial %v", i, got[i], wantQuery[i])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if idx.CacheSummary().Hits == 0 {
		t.Error("SLING cache recorded no hits under the concurrent storm")
	}
}

// TestIndexConcurrentTopKSemBounded exercises the Prop 2.5 early-exit
// path (which shares the cache but scans serially) under contention.
func TestIndexConcurrentTopKSemBounded(t *testing.T) {
	idx, d := stressIndex(t)
	n := d.Graph.NumNodes()
	sources := []semsim.NodeID{1, 9, 27, semsim.NodeID(n - 2)}
	want := make([][]semsim.Scored, len(sources))
	for i, u := range sources {
		want[i] = idx.TopKSemBounded(u, 8)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, u := range sources {
				if !scoredEqual(idx.TopKSemBounded(u, 8), want[i]) {
					select {
					case errc <- fmt.Errorf("TopKSemBounded(%d) diverged under concurrency", u):
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func scoredEqual(a, b []semsim.Scored) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
