package semsim_test

// Capacity acceptance tests for the v3 walk format and the lazy
// residency mode, at the public-facade level: the compression ratio the
// block format exists for, convert round-trips, and lazy serving under
// a cache budget far below the decoded index size.

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"weak"

	"semsim"
	"semsim/internal/datagen"
)

// capacityIndex builds the Amazon-style benchmark graph and its index
// (the same shape the BENCH_query.json benchmarks run on).
func capacityIndex(t *testing.T, opts semsim.IndexOptions) (*datagen.Dataset, *semsim.Index) {
	t.Helper()
	d, err := datagen.Amazon(datagen.AmazonConfig{Items: 600, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if opts.NumWalks == 0 {
		opts = semsim.IndexOptions{NumWalks: 150, WalkLength: 15, Seed: 1, Parallel: true}
	}
	idx, err := semsim.BuildIndex(d.Graph, d.Lin, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d, idx
}

// TestWalkFormatCompression is the headline capacity claim: on the
// Amazon-style benchmark graph the v3 block format is at least 2.5x
// smaller on disk than the flat v2 layout (in-slot step coding spends
// ~1 byte per step against v2's fixed 4).
func TestWalkFormatCompression(t *testing.T) {
	_, idx := capacityIndex(t, semsim.IndexOptions{})
	defer idx.Close()
	var v2, v3 bytes.Buffer
	if err := idx.SaveWalksFormat(&v2, "v2"); err != nil {
		t.Fatal(err)
	}
	if err := idx.SaveWalksFormat(&v3, "v3"); err != nil {
		t.Fatal(err)
	}
	ratio := float64(v2.Len()) / float64(v3.Len())
	t.Logf("v2 = %d bytes, v3 = %d bytes, ratio = %.2fx", v2.Len(), v3.Len(), ratio)
	if ratio < 2.5 {
		t.Fatalf("v3 is only %.2fx smaller than v2, want >= 2.5x", ratio)
	}
}

// TestConvertWalksRoundTrip drives the `semsim convert` path both ways
// through the facade: v3 -> v2 -> v3 must reproduce the original bytes,
// and an index loaded from the converted file must answer identically.
func TestConvertWalksRoundTrip(t *testing.T) {
	d, idx := capacityIndex(t, semsim.IndexOptions{})
	defer idx.Close()
	var v3 bytes.Buffer
	if err := idx.SaveWalks(&v3); err != nil { // default format is v3
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if _, err := semsim.ConvertWalks(bytes.NewReader(v3.Bytes()), d.Graph, &v2, "v2"); err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if _, err := semsim.ConvertWalks(bytes.NewReader(v2.Bytes()), d.Graph, &back, "v3"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v3.Bytes(), back.Bytes()) {
		t.Fatal("v3 -> v2 -> v3 did not reproduce the original bytes")
	}
	if _, err := semsim.ConvertWalks(bytes.NewReader(v3.Bytes()), d.Graph, &bytes.Buffer{}, "v9"); err == nil {
		t.Fatal("unknown format accepted")
	}

	fromV2, err := semsim.LoadIndex(bytes.NewReader(v2.Bytes()), d.Graph, d.Lin, semsim.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fromV2.Close()
	for i := 0; i < 64; i++ {
		u, v := semsim.NodeID(i*7%600), semsim.NodeID((i*13+1)%600)
		if got, want := fromV2.Query(u, v), idx.Query(u, v); got != want {
			t.Fatalf("converted index diverged at (%d,%d): %v != %v", u, v, got, want)
		}
	}
}

// TestLazyIndexServesUnderBudget is the lazy-residency acceptance test:
// an index opened with LazyWalks and a cache budget far below the
// decoded walk size answers Query and TopK bit-identically to the fully
// resident load of the same file, while the decoded-block residency
// stays capped at the budget throughout.
func TestLazyIndexServesUnderBudget(t *testing.T) {
	d, built := capacityIndex(t, semsim.IndexOptions{})
	defer built.Close()
	path := filepath.Join(t.TempDir(), "walks.v3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.SaveWalks(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	opts := semsim.IndexOptions{NumWalks: 150, WalkLength: 15, Seed: 1}
	resident, err := semsim.OpenIndexFile(path, d.Graph, d.Lin, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer resident.Close()

	// The decoded index is n*nw*(t+1+1) int32s (~5.8 MB here); a 256 KiB
	// budget forces continuous eviction, so correctness below is served
	// through the cold path, not a warm cache.
	const budget = 256 << 10
	if decoded := resident.MemoryBytes(); decoded < 8*budget {
		t.Fatalf("budget %d is not far below the resident index (%d bytes); test proves nothing", budget, decoded)
	}
	opts.LazyWalks, opts.WalkCacheBytes = true, budget
	lazy, err := semsim.OpenIndexFile(path, d.Graph, d.Lin, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	if !lazy.LazyWalks() || resident.LazyWalks() {
		t.Fatal("residency mode flags wrong")
	}

	for i := 0; i < 256; i++ {
		u, v := semsim.NodeID(i*7%600), semsim.NodeID((i*13+1)%600)
		if got, want := lazy.Query(u, v), resident.Query(u, v); got != want {
			t.Fatalf("lazy diverged at (%d,%d): %v != %v", u, v, got, want)
		}
		if r := lazy.WalkCacheResidentBytes(); r > budget {
			t.Fatalf("cache residency %d exceeds budget %d", r, budget)
		}
	}
	if lazy.WalkCacheResidentBytes() == 0 {
		t.Fatal("cache never populated")
	}
	if got, want := lazy.TopK(3, 10), resident.TopK(3, 10); len(got) != len(want) {
		t.Fatalf("TopK diverged: %d vs %d results", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("TopK[%d] diverged: %+v != %+v", i, got[i], want[i])
			}
		}
	}
	if lazy.MemoryBytes() >= resident.MemoryBytes() {
		t.Fatalf("lazy MemoryBytes %d not below resident %d", lazy.MemoryBytes(), resident.MemoryBytes())
	}
}

// TestLazyIndexMutation commits an edge edit against a lazily opened
// index: the refresh must rewrite only touched blocks (PR 8's mutation
// path in lazy mode) and queries on the new epoch must keep matching a
// resident index taken through the identical commit.
func TestLazyIndexMutation(t *testing.T) {
	d, err := datagen.Amazon(datagen.AmazonConfig{Items: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opts := semsim.IndexOptions{NumWalks: 40, WalkLength: 8, Seed: 3, Parallel: true}
	built, err := semsim.BuildIndex(d.Graph, d.Lin, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "walks.v3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.SaveWalks(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	built.Close()

	resident, err := semsim.OpenIndexFile(path, d.Graph, d.Lin, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer resident.Close()
	lazyOpts := opts
	lazyOpts.LazyWalks, lazyOpts.WalkCacheBytes = true, 64<<10
	lazy, err := semsim.OpenIndexFile(path, d.Graph, d.Lin, lazyOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()

	commit := func(idx *semsim.Index) {
		t.Helper()
		m := idx.NewMutator()
		m.AddEdge(1, 2, "cap-test", 1)
		if _, err := m.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit(resident)
	commit(lazy)
	if lazy.Epoch() != 1 || !lazy.LazyWalks() {
		t.Fatalf("lazy epoch %d lazy=%v after commit", lazy.Epoch(), lazy.LazyWalks())
	}
	n := d.Graph.NumNodes()
	for i := 0; i < 128; i++ {
		u, v := semsim.NodeID(i*7%n), semsim.NodeID((i*13+1)%n)
		if got, want := lazy.Query(u, v), resident.Query(u, v); got != want {
			t.Fatalf("post-commit lazy diverged at (%d,%d): %v != %v", u, v, got, want)
		}
	}
}

// saveLazyFixture builds the small mutation-test index and saves its
// walks as a v3 file, returning the dataset, the build options and the
// file's path.
func saveLazyFixture(t *testing.T) (*datagen.Dataset, semsim.IndexOptions, string) {
	t.Helper()
	d, err := datagen.Amazon(datagen.AmazonConfig{Items: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opts := semsim.IndexOptions{NumWalks: 40, WalkLength: 8, Seed: 3}
	built, err := semsim.BuildIndex(d.Graph, d.Lin, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	path := filepath.Join(t.TempDir(), "walks.v3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.SaveWalks(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return d, opts, path
}

// commitEdge commits one edge 1 -> 2 on idx.
func commitEdge(t *testing.T, idx *semsim.Index) {
	t.Helper()
	m := idx.NewMutator()
	m.AddEdge(1, 2, "cap-test", 1)
	if _, err := m.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSupersededLazyEpochReleased pins epoch release on a lazy index:
// once a commit supersedes epoch 0 and no View pins it, epoch 0's walk
// index — with every block it holds — is garbage, so a run of commits
// does not accumulate one walk index per epoch until Close.
func TestSupersededLazyEpochReleased(t *testing.T) {
	d, opts, path := saveLazyFixture(t)
	opts.LazyWalks, opts.WalkCacheBytes = true, 64<<10
	lazy, err := semsim.OpenIndexFile(path, d.Graph, d.Lin, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	epoch0 := weak.Make(semsim.EpochWalks(lazy))
	commitEdge(t, lazy)
	runtime.GC()
	runtime.GC()
	if epoch0.Value() != nil {
		t.Fatal("epoch 0's walk index is still reachable after a commit superseded it")
	}
	if lazy.Epoch() != 1 || !lazy.LazyWalks() {
		t.Fatalf("epoch %d lazy=%v after commit", lazy.Epoch(), lazy.LazyWalks())
	}
}

// TestWalkIndexBytesGauge pins semsim_walk_index_bytes for every way an
// index comes to be: built, loaded, or opened lazily, the gauge holds
// the current epoch's walk-index bytes from epoch 0 on, and again after
// a commit.
func TestWalkIndexBytesGauge(t *testing.T) {
	d, opts, path := saveLazyFixture(t)
	open := map[string]func(semsim.IndexOptions) (*semsim.Index, error){
		"build": func(o semsim.IndexOptions) (*semsim.Index, error) {
			return semsim.BuildIndex(d.Graph, d.Lin, o)
		},
		"load": func(o semsim.IndexOptions) (*semsim.Index, error) {
			return semsim.OpenIndexFile(path, d.Graph, d.Lin, o)
		},
		"lazy": func(o semsim.IndexOptions) (*semsim.Index, error) {
			o.LazyWalks, o.WalkCacheBytes = true, 64<<10
			return semsim.OpenIndexFile(path, d.Graph, d.Lin, o)
		},
	}
	for name, openIdx := range open {
		t.Run(name, func(t *testing.T) {
			o := opts
			o.Metrics = semsim.NewMetrics()
			idx, err := openIdx(o)
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			check := func(epoch uint64) {
				t.Helper()
				got, ok := o.Metrics.Snapshot().Gauges["semsim_walk_index_bytes"]
				want := semsim.EpochWalks(idx).MemoryBytes()
				if !ok || got != float64(want) || want <= 0 {
					t.Fatalf("epoch %d: semsim_walk_index_bytes = %v (present %v), want %d", epoch, got, ok, want)
				}
			}
			check(0)
			commitEdge(t, idx)
			check(1)
		})
	}
}
