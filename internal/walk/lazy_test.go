package walk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"semsim/internal/hin"
	"semsim/internal/obs"
)

// lazyFixture streams a multi-block v3 index to disk and opens it both
// ways: fully resident and lazily with the given cache budget.
func lazyFixture(t *testing.T, g *hin.Graph, opts Options, blockBytes int, cacheBytes int64, m *obs.Registry) (resident, lazy *Index) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "walks.v3")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildStreaming(g, opts, blockBytes, fh); err != nil {
		t.Fatalf("BuildStreaming: %v", err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	resident, err = Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	lazy, err = OpenLazyFile(path, g, LazyOptions{CacheBytes: cacheBytes, Metrics: m})
	if err != nil {
		t.Fatalf("OpenLazyFile: %v", err)
	}
	t.Cleanup(func() { lazy.Close() })
	return resident, lazy
}

func assertSameIndex(t *testing.T, want, got *Index) {
	t.Helper()
	if want.NumWalks() != got.NumWalks() || want.Length() != got.Length() {
		t.Fatalf("dims differ: %d/%d vs %d/%d", want.NumWalks(), want.Length(), got.NumWalks(), got.Length())
	}
	n := want.Graph().NumNodes()
	for v := 0; v < n; v++ {
		for i := 0; i < want.NumWalks(); i++ {
			if wl, gl := want.WalkLen(hin.NodeID(v), i), got.WalkLen(hin.NodeID(v), i); wl != gl {
				t.Fatalf("WalkLen(%d,%d) = %d, want %d", v, i, gl, wl)
			}
			a, b := want.Walk(hin.NodeID(v), i), got.Walk(hin.NodeID(v), i)
			if !bytes.Equal(int32Bytes(a), int32Bytes(b)) {
				t.Fatalf("walk (%d,%d) differs: %v vs %v", v, i, b, a)
			}
		}
	}
}

// TestLazyConformanceAndBudget is the acceptance gate for lazy mode:
// every walk, length and meeting served from the block cache is
// bit-identical to the fully resident index, while the cache's resident
// bytes never exceed a budget far below the full decoded size.
func TestLazyConformanceAndBudget(t *testing.T) {
	g := braid(t, 64)
	opts := Options{NumWalks: 8, Length: 6, Seed: 21}
	m := obs.NewRegistry()
	const budget = 3000 // decoded index is 64*8*(7+1)*4 = 16 KiB; ~3 blocks fit
	resident, lazy := lazyFixture(t, g, opts, 1024, budget, m)
	if !lazy.Lazy() || resident.Lazy() {
		t.Fatal("Lazy() misreports residency mode")
	}
	if lazy.MemoryBytes() >= resident.MemoryBytes() {
		t.Fatalf("lazy MemoryBytes %d not below resident %d", lazy.MemoryBytes(), resident.MemoryBytes())
	}

	n := g.NumNodes()
	for pass := 0; pass < 2; pass++ { // second pass rereads evicted blocks
		for v := 0; v < n; v++ {
			for i := 0; i < opts.NumWalks; i++ {
				a, b := resident.Walk(hin.NodeID(v), i), lazy.Walk(hin.NodeID(v), i)
				if !bytes.Equal(int32Bytes(a), int32Bytes(b)) {
					t.Fatalf("walk (%d,%d) differs lazily", v, i)
				}
			}
			u := hin.NodeID((v * 31) % n)
			for i := 0; i < opts.NumWalks; i++ {
				tau1, ok1 := resident.Meet(hin.NodeID(v), u, i)
				tau2, ok2 := lazy.Meet(hin.NodeID(v), u, i)
				if tau1 != tau2 || ok1 != ok2 {
					t.Fatalf("Meet(%d,%d,%d) = (%d,%v) lazily, want (%d,%v)", v, u, i, tau2, ok2, tau1, ok1)
				}
			}
			if r := lazy.CacheResidentBytes(); r > budget {
				t.Fatalf("cache resident bytes %d exceed budget %d", r, budget)
			}
		}
	}
	if lazy.DecodeErrors() != 0 {
		t.Fatalf("decode errors: %d (%v)", lazy.DecodeErrors(), lazy.LastDecodeErr())
	}

	snap := m.Snapshot()
	if snap.Counters["semsim_walk_cache_misses_total"] == 0 || snap.Counters["semsim_walk_cache_hits_total"] == 0 {
		t.Fatalf("cache counters not exported or flat: %v", snap.Counters)
	}
	if snap.Counters["semsim_walk_cache_evictions_total"] == 0 {
		t.Fatal("expected evictions under a sub-index budget")
	}
	if rb := snap.Gauges["semsim_walk_cache_resident_bytes"]; rb <= 0 || rb > budget {
		t.Fatalf("resident_bytes gauge %v outside (0, %d]", rb, budget)
	}
}

// TestLazyEvictionDuringRead pins the view-pinning contract: a NodeView
// fetched before its block is evicted keeps serving the decoded data.
func TestLazyEvictionDuringRead(t *testing.T) {
	g := braid(t, 64)
	opts := Options{NumWalks: 8, Length: 6, Seed: 9}
	resident, lazy := lazyFixture(t, g, opts, 1024, 2000, nil)

	held := lazy.View(0, nil)
	// Touch every node: with a ~1-block budget this evicts node 0's
	// block many times over.
	for v := 0; v < g.NumNodes(); v++ {
		_ = lazy.View(hin.NodeID(v), nil)
	}
	for i := 0; i < opts.NumWalks; i++ {
		a, b := resident.Walk(0, i), held.Walk(i)
		if !bytes.Equal(int32Bytes(a), int32Bytes(b)) {
			t.Fatalf("held view walk %d corrupted after eviction", i)
		}
		if held.Len(i) != resident.WalkLen(0, i) {
			t.Fatalf("held view len %d differs after eviction", i)
		}
	}
}

// TestLazyRacingColdQueries drives concurrent queries through cold
// blocks under a tiny budget, so decodes, hits and evictions race; run
// under -race in CI tier 2. Results must match the resident index.
func TestLazyRacingColdQueries(t *testing.T) {
	g := braid(t, 96)
	opts := Options{NumWalks: 6, Length: 5, Seed: 4}
	resident, lazy := lazyFixture(t, g, opts, 512, 2500, nil)

	n := g.NumNodes()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := newRNG(77, uint64(w))
			for k := 0; k < 400; k++ {
				u := hin.NodeID(r.intn(n))
				v := hin.NodeID(r.intn(n))
				i := r.intn(opts.NumWalks)
				tau1, ok1 := resident.Meet(u, v, i)
				tau2, ok2 := lazy.Meet(u, v, i)
				if tau1 != tau2 || ok1 != ok2 {
					errs <- fmt.Errorf("Meet(%d,%d,%d) = (%d,%v), want (%d,%v)", u, v, i, tau2, ok2, tau1, ok1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if lazy.DecodeErrors() != 0 {
		t.Fatalf("decode errors under race: %v", lazy.LastDecodeErr())
	}
}

// TestLazyRefreshConformance is the dual-residency mutation gate: a
// Refresh of the lazy index (chord edge + node growth, two epochs deep)
// must produce walks, lengths and stats bit-identical to the same
// Refresh of the fully resident index.
func TestLazyRefreshConformance(t *testing.T) {
	old := braid(t, 40)
	opts := Options{NumWalks: 10, Length: 7, Seed: 31}
	resident, lazy := lazyFixture(t, old, opts, 1024, 4000, nil)

	// Epoch 1: a chord changes node 9's in-neighborhood.
	_, withChord := addChord(t, 40, 3, 9)
	changed, err := hin.ChangedInNeighborhoodsGrown(old, withChord)
	if err != nil {
		t.Fatal(err)
	}
	wantIx, wantSt, err := resident.Refresh(withChord, changed, 55)
	if err != nil {
		t.Fatalf("resident Refresh: %v", err)
	}
	gotIx, gotSt, err := lazy.Refresh(withChord, changed, 55)
	if err != nil {
		t.Fatalf("lazy Refresh: %v", err)
	}
	if !gotIx.Lazy() {
		t.Fatal("refreshed lazy index lost lazy mode")
	}
	if wantSt.Resampled != gotSt.Resampled || wantSt.NewNodes != gotSt.NewNodes {
		t.Fatalf("stats differ: %+v vs %+v", gotSt, wantSt)
	}
	for v := range wantSt.Touched {
		if wantSt.Touched[v] != gotSt.Touched[v] {
			t.Fatalf("Touched[%d] = %v, want %v", v, gotSt.Touched[v], wantSt.Touched[v])
		}
	}
	assertSameIndex(t, wantIx, gotIx)

	// Epoch 2: grow the graph; the lazy chain still serves old blocks
	// from the file and new/touched ones from the overlay.
	grown := grow(t, withChord, 5)
	changed2, err := hin.ChangedInNeighborhoodsGrown(withChord, grown)
	if err != nil {
		t.Fatal(err)
	}
	wantIx2, wantSt2, err := wantIx.Refresh(grown, changed2, 56)
	if err != nil {
		t.Fatalf("resident Refresh 2: %v", err)
	}
	gotIx2, gotSt2, err := gotIx.Refresh(grown, changed2, 56)
	if err != nil {
		t.Fatalf("lazy Refresh 2: %v", err)
	}
	if wantSt2.Resampled != gotSt2.Resampled || wantSt2.NewNodes != gotSt2.NewNodes {
		t.Fatalf("epoch-2 stats differ: %+v vs %+v", gotSt2, wantSt2)
	}
	assertSameIndex(t, wantIx2, gotIx2)

	// The pre-refresh epochs still serve their original walks (epoch
	// isolation) in both residencies — resident epochs share their
	// untouched blocks with their successors — and closing the whole
	// chain releases the shared file exactly once.
	res0, _ := Build(old, opts)
	assertSameIndex(t, res0, lazy)
	assertSameIndex(t, res0, resident)
	if err := gotIx2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gotIx.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLazyDecodeErrorDegrades pins the hot-path failure contract: when
// a block turns unreadable after open (bit rot, I/O error), queries for
// its nodes degrade to stopped walks — never a panic or a wrong
// non-zero score — the error is counted, and other blocks still serve.
func TestLazyDecodeErrorDegrades(t *testing.T) {
	g := braid(t, 64)
	opts := Options{NumWalks: 8, Length: 6, Seed: 2}
	resident, err := Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := BuildStreaming(g, opts, 1024, &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt block 1's payload without restamping its CRC.
	plen0 := binary.LittleEndian.Uint32(data[v3HeaderBytes:])
	block1 := v3HeaderBytes + 8 + int(plen0)
	data[block1+8] ^= 0xFF

	reg := obs.NewRegistry()
	lazy, err := OpenLazy(bytes.NewReader(data), int64(len(data)), g, LazyOptions{CacheBytes: 1 << 20, Metrics: reg})
	if err != nil {
		t.Fatalf("OpenLazy: %v", err)
	}
	bn := lazy.bn
	good := hin.NodeID(0) // block 0
	bad := hin.NodeID(bn) // first node of block 1
	if !bytes.Equal(int32Bytes(lazy.Walk(good, 0)), int32Bytes(resident.Walk(good, 0))) {
		t.Fatal("healthy block corrupted by neighbor's bit rot")
	}
	w := lazy.Walk(bad, 0)
	if w[0] != int32(bad) || w[1] != Stop || lazy.WalkLen(bad, 0) != 1 {
		t.Fatalf("degraded walk = %v (len %d), want stopped at origin", w, lazy.WalkLen(bad, 0))
	}
	if tau, ok := lazy.Meet(bad, bad, 0); !ok || tau != 0 {
		t.Fatal("self-meeting lost on degraded node: sim(u,u) would drop below 1")
	}
	if lazy.DecodeErrors() == 0 || lazy.LastDecodeErr() == nil {
		t.Fatal("decode failure was not recorded")
	}
	// The failure is also scrapeable: DecodeErrors mirrors into the
	// registry so lazy-path corruption reaches alerting.
	if got := reg.Counter("semsim_walk_decode_errors_total", "").Value(); got != int64(lazy.DecodeErrors()) {
		t.Fatalf("semsim_walk_decode_errors_total = %d, want %d", got, lazy.DecodeErrors())
	}
}

// TestOpenLazyRejects covers the open-time validation: non-v3 files
// point at convert, and directory corruption is caught before serving.
func TestOpenLazyRejects(t *testing.T) {
	g := braid(t, 16)
	ix, err := Build(g, Options{NumWalks: 3, Length: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if _, err := ix.WriteToFormat(&v2, FormatV2); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLazy(bytes.NewReader(v2.Bytes()), int64(v2.Len()), g, LazyOptions{}); err == nil {
		t.Fatal("OpenLazy accepted a v2 file")
	} else if !bytes.Contains([]byte(err.Error()), []byte("convert")) {
		t.Fatalf("v2 rejection should point at convert, got: %v", err)
	}

	var v3 bytes.Buffer
	if _, err := ix.WriteTo(&v3); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), v3.Bytes()...)
	data[len(data)-1] ^= 0xFF // directory CRC
	if _, err := OpenLazy(bytes.NewReader(data), int64(len(data)), g, LazyOptions{}); err == nil {
		t.Fatal("OpenLazy accepted a corrupt directory")
	}

	other := braid(t, 17)
	if _, err := OpenLazy(bytes.NewReader(v3.Bytes()), int64(v3.Len()), other, LazyOptions{}); err == nil {
		t.Fatal("OpenLazy accepted an index for a different graph")
	}

	// Hostile headers are rejected without huge allocations, like Load.
	for _, h := range hostileV3Seeds(g) {
		if _, err := OpenLazy(bytes.NewReader(h), int64(len(h)), g, LazyOptions{}); err == nil {
			t.Fatal("OpenLazy accepted a hostile header")
		}
	}

	// The sequential loader accepts what the lazy opener accepts.
	if _, err := Load(bytes.NewReader(v3.Bytes()), g); err != nil {
		t.Fatalf("Load of valid v3: %v", err)
	}
}
