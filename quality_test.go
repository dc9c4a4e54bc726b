package semsim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"semsim/internal/engine"
	"semsim/internal/obs"
)

// TestExplainQueryBitIdentity: the public explain path returns the same
// score Query does, bit for bit, on every backend.
func TestExplainQueryBitIdentity(t *testing.T) {
	g, tax := buildSample(t)
	lin := NewLin(tax)
	for _, backend := range []string{"mc", "reduced", "exact"} {
		idx, err := BuildIndex(g, lin, IndexOptions{
			NumWalks: 80, WalkLength: 8, Theta: 0.05, SLINGCutoff: 0.1,
			Seed: 1, Backend: backend,
		})
		if err != nil {
			t.Fatalf("BuildIndex(%s): %v", backend, err)
		}
		n := g.NumNodes()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want := idx.Query(NodeID(u), NodeID(v))
				ex, err := idx.ExplainQuery(NodeID(u), NodeID(v))
				if err != nil {
					t.Fatalf("%s ExplainQuery(%d,%d): %v", backend, u, v, err)
				}
				if ex.Score != want {
					t.Fatalf("%s (%d,%d): explain score %v != query %v", backend, u, v, ex.Score, want)
				}
				if ex.Backend != backend {
					t.Fatalf("%s: explanation claims backend %q", backend, ex.Backend)
				}
			}
		}
		if _, err := idx.ExplainQuery(NodeID(n), 0); !errors.Is(err, ErrNodeOutOfRange) {
			t.Errorf("%s: out-of-range explain error = %v, want ErrNodeOutOfRange", backend, err)
		}
	}
}

// TestExplainQueryEvidence: on the mc backend the public explanation
// carries the sampling evidence and provenance the /explain payload
// documents.
func TestExplainQueryEvidence(t *testing.T) {
	g, tax := buildSample(t)
	lin := NewLin(tax)
	idx, err := BuildIndex(g, lin, IndexOptions{
		NumWalks: 100, WalkLength: 8, Theta: 0.05, SLINGCutoff: 0.1, Seed: 2,
	})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	a, _ := g.NodeByName("a")
	b, _ := g.NodeByName("b")
	ex, err := idx.ExplainQuery(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ex.NumWalks != 100 {
		t.Errorf("NumWalks = %d, want 100", ex.NumWalks)
	}
	if ex.Theta != 0.05 || ex.CIConfidence != 0.95 {
		t.Errorf("theta/confidence provenance wrong: %+v", ex)
	}
	if ex.SOCacheMode != "dense" && ex.SOCacheMode != "map" {
		t.Errorf("SOCacheMode = %q with SLING cache enabled", ex.SOCacheMode)
	}
	if ex.KernelMode != idx.KernelMode() {
		t.Errorf("KernelMode = %q, index reports %q", ex.KernelMode, idx.KernelMode())
	}
	if ex.CILow > ex.Score || ex.Score > ex.CIHigh {
		t.Errorf("CI [%v,%v] does not contain the clamped score %v", ex.CILow, ex.CIHigh, ex.Score)
	}
}

// TestShadowEndToEnd: with ShadowRate 1 every query is offered for
// verification on the linear reference; on a graph this small the
// estimate errors stay inside the theta envelope, so no critical drift
// fires. Queries answered before the reference is ready are skipped, so
// every offer lands in exactly one of checked, dropped and skipped.
func TestShadowEndToEnd(t *testing.T) {
	g, tax := buildSample(t)
	lin := NewLin(tax)
	reg := NewMetrics()
	idx, err := BuildIndex(g, lin, IndexOptions{
		NumWalks: 200, WalkLength: 10, Theta: 0.05, SLINGCutoff: 0.1, Seed: 3,
		Metrics: reg, ShadowRate: 1,
	})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	n := g.NumNodes()
	queries := 0
	queryAll := func() {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				idx.Query(NodeID(u), NodeID(v))
				queries++
			}
		}
	}
	queryAll() // races the background reference build
	waitShadowRef(t, idx)
	queryAll()
	idx.Close() // drains the verification queue
	idx.Close() // second Close is a documented no-op

	snap := reg.Snapshot()
	checked := snap.Counters["semsim_shadow_checked_total"]
	dropped := snap.Counters["semsim_shadow_dropped_total"]
	skipped := snap.Counters["semsim_shadow_skipped_total"]
	if checked == 0 {
		t.Fatal("shadow verifier checked nothing at rate 1")
	}
	if checked+dropped+skipped != int64(queries) {
		t.Errorf("checked %d + dropped %d + skipped %d != %d queries offered", checked, dropped, skipped, queries)
	}
	if errs := snap.Counters["semsim_shadow_errors_total"]; errs != 0 {
		t.Errorf("shadow reference errored %d times", errs)
	}
	if h := snap.Histograms["semsim_shadow_abs_err"]; h.Count != checked {
		t.Errorf("abs_err observations %d != checked %d", h.Count, checked)
	}
	// The worst observed error is a real number <= 1.
	if w := snap.Gauges["semsim_shadow_worst_abs_err"]; w < 0 || w > 1 {
		t.Errorf("worst abs err gauge = %v", w)
	}
}

// TestShadowBackendSelection: an exact-capable index backend is reused
// as its own shadow reference (no second build), while the default mc
// backend forces a reference build.
func TestShadowBackendSelection(t *testing.T) {
	g, tax := buildSample(t)
	lin := NewLin(tax)

	reg := NewMetrics()
	idx, err := BuildIndex(g, lin, IndexOptions{
		NumWalks: 50, WalkLength: 8, Seed: 4,
		Backend: "exact", Metrics: reg, ShadowRate: 1,
	})
	if err != nil {
		t.Fatalf("BuildIndex(exact): %v", err)
	}
	defer idx.Close()
	if h := reg.Snapshot().Histograms["semsim_build_shadow_backend_seconds"]; h.Count != 0 {
		t.Errorf("exact index built a redundant shadow reference (%d builds)", h.Count)
	}

	reg2 := NewMetrics()
	idx2, err := BuildIndex(g, lin, IndexOptions{
		NumWalks: 50, WalkLength: 8, Seed: 4,
		Metrics: reg2, ShadowRate: 1,
	})
	if err != nil {
		t.Fatalf("BuildIndex(mc): %v", err)
	}
	defer idx2.Close()
	waitShadowRef(t, idx2)
	if h := reg2.Snapshot().Histograms["semsim_build_shadow_backend_seconds"]; h.Count != 1 {
		t.Errorf("mc index recorded %d shadow reference builds, want 1", h.Count)
	}
}

// assertShadowRef checks that the index's current shadow reference
// scores every pair bit-identically to a freshly built backend of the
// named kind over the same graph and measure.
func assertShadowRef(t *testing.T, idx *Index, name string, opts IndexOptions) {
	t.Helper()
	assertEpochRef(t, waitShadowRef(t, idx), name, opts)
}

// assertEpochRef checks one epoch's ready shadow reference against a
// freshly built backend over that epoch's graph and measure.
func assertEpochRef(t *testing.T, s *snapshot, name string, opts IndexOptions) {
	t.Helper()
	ref := s.ref.Load()
	want, err := engine.New(name, engine.Config{
		Graph: s.g, Sem: s.sem, C: opts.C, Theta: opts.Theta,
		MaxLinearNodes: opts.MaxLinearNodes,
	})
	if err != nil {
		t.Fatalf("engine.New(%s): %v", name, err)
	}
	n := s.g.NumNodes()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			got, err := ref.score(NodeID(u), NodeID(v))
			if err != nil {
				t.Fatalf("reference score(%d,%d): %v", u, v, err)
			}
			if w, _ := want.Query(NodeID(u), NodeID(v), nil); got != w {
				t.Fatalf("shadow reference scores (%d,%d) = %v, a %s backend %v", u, v, got, name, w)
			}
		}
	}
}

// waitShadowRef waits for the current epoch's shadow reference and
// returns that epoch.
func waitShadowRef(t *testing.T, idx *Index) *snapshot {
	t.Helper()
	s := idx.snap.Load()
	if !WaitShadowReference(idx, time.Minute) {
		t.Fatalf("epoch %d's shadow reference not ready after a minute", s.epoch)
	}
	return s
}

// TestShadowDefaultsToLinear: an mc index with ShadowRate builds exactly
// one reference, the linear backend, and publishes its SO cache's dense
// table for it before the epoch, timed as the cache warm.
func TestShadowDefaultsToLinear(t *testing.T) {
	g, tax := buildSample(t)
	reg := NewMetrics()
	opts := IndexOptions{
		NumWalks: 50, WalkLength: 8, C: 0.6, Theta: 0.05, SLINGCutoff: 0.1, Seed: 4,
		Metrics: reg, ShadowRate: 1,
	}
	idx, err := BuildIndex(g, NewLin(tax), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if !idx.snap.Load().cache.Dense() {
		t.Error("epoch published before its SO cache went dense for a linear shadow reference")
	}
	waitShadowRef(t, idx)
	h := reg.Snapshot().Histograms
	if c := h["semsim_build_shadow_backend_seconds"].Count; c != 1 {
		t.Errorf("%d shadow reference builds, want 1", c)
	}
	if c := h["semsim_build_cache_warm_seconds"].Count; c != 1 {
		t.Errorf("%d SO cache warms, want 1", c)
	}
	assertShadowRef(t, idx, "linear", opts)
}

// TestShadowAboveLinearCap: above the linear node cap an empty
// ShadowBackend builds no reference — no build, no SO cache warm — and
// every sample is skipped, while an explicitly named "reduced" reference
// is still built, and the SO cache stays lazy for it (no reference reads
// the dense table).
func TestShadowAboveLinearCap(t *testing.T) {
	g, tax := buildSample(t)
	reg := NewMetrics()
	opts := IndexOptions{
		NumWalks: 50, WalkLength: 8, C: 0.6, Theta: 0.05, SLINGCutoff: 0.1, Seed: 4,
		Metrics: reg, ShadowRate: 1, MaxLinearNodes: g.NumNodes() - 1,
	}
	idx, err := BuildIndex(g, NewLin(tax), opts)
	if err != nil {
		t.Fatal(err)
	}
	const queries = 10
	for i := 0; i < queries; i++ {
		idx.Query(0, NodeID(i%g.NumNodes()))
	}
	m := idx.NewMutator()
	a, _ := g.NodeByName("a")
	f, _ := g.NodeByName("f")
	m.AddEdge(a, f, "co-author", 1)
	if _, err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	idx.Query(a, f)
	idx.Close() // stops the builder: nothing it could still publish
	snap := reg.Snapshot()
	if c := snap.Histograms["semsim_build_shadow_backend_seconds"].Count; c != 0 {
		t.Errorf("%d shadow reference builds, want none", c)
	}
	if c := snap.Histograms["semsim_build_cache_warm_seconds"].Count; c != 0 {
		t.Errorf("%d SO cache warms, want none", c)
	}
	if idx.snap.Load().cache.Dense() {
		t.Error("SO cache went dense with no shadow reference")
	}
	if c := snap.Counters["semsim_shadow_skipped_total"]; c != queries+1 {
		t.Errorf("%d samples skipped, want all %d", c, queries+1)
	}
	if c := snap.Counters["semsim_shadow_checked_total"]; c != 0 {
		t.Errorf("%d samples checked with no reference", c)
	}

	reg = NewMetrics()
	opts.Metrics, opts.ShadowBackend = reg, "reduced"
	idx, err = BuildIndex(g, NewLin(tax), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	assertShadowRef(t, idx, "reduced", opts)
	h := reg.Snapshot().Histograms
	if c := h["semsim_build_shadow_backend_seconds"].Count; c != 1 {
		t.Errorf("%d shadow reference builds, want 1", c)
	}
	if c := h["semsim_build_cache_warm_seconds"].Count; c != 0 {
		t.Errorf("%d SO cache warms, want none", c)
	}
	if idx.snap.Load().cache.Dense() {
		t.Error("SO cache went dense for a reduced shadow reference")
	}
}

// swapRefBuilder replaces idx's reference builder, once epoch 0's
// reference is ready, with one running build instead of the real
// constructor.
func swapRefBuilder(t *testing.T, idx *Index, build func(ctx context.Context, snap *snapshot, name string) (engine.Backend, error)) {
	t.Helper()
	waitShadowRef(t, idx)
	idx.refs.close()
	idx.refs = newRefBuilder(idx.metrics, build)
}

// toggleEdge commits one edge edit between the sample graph's a and f.
func toggleEdge(t *testing.T, idx *Index, i int) {
	t.Helper()
	g := idx.Graph()
	a, _ := g.NodeByName("a")
	f, _ := g.NodeByName("f")
	m := idx.NewMutator()
	if i%2 == 0 {
		m.AddEdge(a, f, "co-author", 1)
	} else {
		m.RemoveEdge(a, f, "co-author")
	}
	if _, err := m.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestShadowSkipsUntilReference: a commit returns with its epoch
// published while the epoch's reference is still building. Samples
// offered in that window are skipped and never verified; once the
// reference is ready every sample is verified against it.
func TestShadowSkipsUntilReference(t *testing.T) {
	g, tax := buildSample(t)
	reg := NewMetrics()
	idx, err := BuildIndex(g, NewLin(tax), IndexOptions{
		NumWalks: 50, WalkLength: 8, Theta: 0.05, SLINGCutoff: 0.1, Seed: 6,
		Metrics: reg, ShadowRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	started := make(chan uint64, 1)
	release := make(chan struct{})
	swapRefBuilder(t, idx, func(ctx context.Context, snap *snapshot, name string) (engine.Backend, error) {
		started <- snap.epoch
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return idx.buildRef(ctx, snap, name)
	})
	toggleEdge(t, idx, 0)
	if e := <-started; e != 1 {
		t.Fatalf("builder started epoch %d, want 1", e)
	}
	n := g.NumNodes()
	queryAll := func() {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				idx.Query(NodeID(u), NodeID(v))
			}
		}
	}
	queryAll()
	close(release)
	waitShadowRef(t, idx)
	queryAll()
	idx.Close()

	c := reg.Snapshot().Counters
	// n*n is below the default 256-sample queue, so nothing is dropped.
	if got := c["semsim_shadow_skipped_total"]; got != int64(n*n) {
		t.Errorf("skipped %d samples offered before the reference, want %d", got, n*n)
	}
	if got := c["semsim_shadow_checked_total"]; got != int64(n*n) {
		t.Errorf("checked %d samples offered after the reference, want %d", got, n*n)
	}
	if got := c["semsim_shadow_dropped_total"] + c["semsim_shadow_errors_total"]; got != 0 {
		t.Errorf("%d samples dropped or errored", got)
	}
}

// TestShadowNewestEpochWins: a burst of commits racing queries builds at
// most one reference per epoch; every epoch superseded while its build
// was in flight is cancelled and never gets a reference, and the newest
// epoch's reference becomes ready and scores like a fresh linear
// backend over its graph.
func TestShadowNewestEpochWins(t *testing.T) {
	g, tax := buildSample(t)
	reg := NewMetrics()
	opts := IndexOptions{
		NumWalks: 50, WalkLength: 8, C: 0.6, Theta: 0.05, SLINGCutoff: 0.1, Seed: 7,
		Metrics: reg, ShadowRate: 1,
	}
	idx, err := BuildIndex(g, NewLin(tax), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	const commits = 12
	var mu sync.Mutex
	builds := map[uint64]int{}
	epochs := map[uint64]*snapshot{}
	swapRefBuilder(t, idx, func(ctx context.Context, snap *snapshot, name string) (engine.Backend, error) {
		mu.Lock()
		builds[snap.epoch]++
		epochs[snap.epoch] = snap
		mu.Unlock()
		if snap.epoch < commits {
			// Hold every build but the last until a newer epoch
			// cancels it.
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return idx.buildRef(ctx, snap, name)
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	n := g.NumNodes()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				idx.Query(NodeID(i%n), NodeID(i*7%n))
			}
		}(w)
	}
	for i := 0; i < commits; i++ {
		toggleEdge(t, idx, i)
	}
	final := waitShadowRef(t, idx)
	close(stop)
	wg.Wait()

	if final.epoch != commits {
		t.Fatalf("current epoch %d, want %d", final.epoch, commits)
	}
	assertShadowRef(t, idx, "linear", opts)
	mu.Lock()
	defer mu.Unlock()
	for e, c := range builds {
		if c > 1 {
			t.Errorf("epoch %d's reference was built %d times", e, c)
		}
		if s := epochs[e]; e < commits && s.ref.Load() != nil {
			t.Errorf("superseded epoch %d got a reference", e)
		}
	}
	if builds[commits] != 1 {
		t.Errorf("newest epoch built %d times, want 1", builds[commits])
	}
	// Epoch 0's build plus the newest epoch's: cancelled builds are not
	// timed.
	if c := reg.Snapshot().Histograms["semsim_build_shadow_backend_seconds"].Count; c != 2 {
		t.Errorf("%d completed reference builds, want 2", c)
	}
}

// TestShadowCloseStopsInFlightBuild: Close cancels a reference build in
// flight and returns only after the builder goroutine has exited.
func TestShadowCloseStopsInFlightBuild(t *testing.T) {
	g, tax := buildSample(t)
	idx, err := BuildIndex(g, NewLin(tax), IndexOptions{
		NumWalks: 50, WalkLength: 8, Theta: 0.05, SLINGCutoff: 0.1, Seed: 8,
		ShadowRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	cancelled := make(chan error, 1)
	swapRefBuilder(t, idx, func(ctx context.Context, snap *snapshot, name string) (engine.Backend, error) {
		close(started)
		<-ctx.Done()
		cancelled <- ctx.Err()
		return nil, ctx.Err()
	})
	b := idx.refs
	toggleEdge(t, idx, 0)
	<-started
	closed := make(chan struct{})
	go func() {
		idx.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Minute):
		t.Fatal("Close did not return with a reference build in flight")
	}
	select {
	case <-b.done:
	default:
		t.Error("Close returned before the builder goroutine exited")
	}
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Errorf("in-flight build saw %v, want context.Canceled", err)
	}
	if idx.snap.Load().ref.Load() != nil {
		t.Error("the cancelled build published a reference")
	}
}

// TestShadowOnOffBitIdentical: shadowing only observes. Query, TopK and
// ExplainQuery answer bit-identically with and without it — at build,
// after a commit without an IC update (the dense SO table migrates) and
// after one with (the successor table is rebuilt). Only the SO cache's
// provenance differs: the shadowed index reads the dense table, so its
// probes are hits where the lazy cache misses.
func TestShadowOnOffBitIdentical(t *testing.T) {
	g, tax := buildSample(t)
	opts := IndexOptions{
		NumWalks: 60, WalkLength: 8, C: 0.6, Theta: 0.05, SLINGCutoff: 0.1, Seed: 9,
		MeetIndex: true, AutoPlan: true,
	}
	off, err := BuildIndex(g, NewLin(tax), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	opts.ShadowRate = 1
	on, err := BuildIndex(g, NewLin(tax), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()

	compare := func(stage string) {
		t.Helper()
		if !on.snap.Load().cache.Dense() || off.snap.Load().cache.Dense() {
			t.Fatalf("%s: want a dense SO table only on the shadowed index", stage)
		}
		n := on.Graph().NumNodes()
		for u := 0; u < n; u++ {
			if a, b := on.TopK(NodeID(u), 5), off.TopK(NodeID(u), 5); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: TopK(%d) = %v with shadowing, %v without", stage, u, a, b)
			}
			for v := 0; v < n; v++ {
				if a, b := on.Query(NodeID(u), NodeID(v)), off.Query(NodeID(u), NodeID(v)); a != b {
					t.Fatalf("%s: Query(%d,%d) = %v with shadowing, %v without", stage, u, v, a, b)
				}
				a, errA := on.ExplainQuery(NodeID(u), NodeID(v))
				b, errB := off.ExplainQuery(NodeID(u), NodeID(v))
				if errA != nil || errB != nil {
					t.Fatalf("%s: ExplainQuery(%d,%d): %v, %v", stage, u, v, errA, errB)
				}
				if a.Cost.SOHits+a.Cost.SOMisses != b.Cost.SOHits+b.Cost.SOMisses || a.Cost.SOMisses != 0 {
					t.Fatalf("%s: ExplainQuery(%d,%d) SO probes %+v with shadowing, %+v without", stage, u, v, a.Cost, b.Cost)
				}
				for _, ex := range []*Explanation{a, b} {
					ex.ElapsedSeconds, ex.SOCacheMode = 0, ""
					ex.Cost.SOHits, ex.Cost.SOMisses = 0, 0
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: ExplainQuery(%d,%d) = %+v with shadowing, %+v without", stage, u, v, a, b)
				}
			}
		}
	}
	commit := func(edit func(m *Mutator)) {
		t.Helper()
		for _, ix := range []*Index{off, on} {
			m := ix.NewMutator()
			edit(m)
			if _, err := m.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	node := func(name string) NodeID {
		id, ok := g.NodeByName(name)
		if !ok {
			t.Fatalf("no node %q", name)
		}
		return id
	}

	compare("build")
	commit(func(m *Mutator) { m.AddEdge(node("a"), node("f"), "co-author", 1) })
	compare("edge commit")
	commit(func(m *Mutator) {
		m.UpdateConceptFreq(node("Databases"), 0.3)
		m.RemoveEdge(node("b"), node("c"), "co-author")
	})
	compare("IC commit")
}

// TestCommitTraceStaysBounded: every commit records its backend spans
// into the build trace (in serve, the startup trace), so a long-lived
// index must leave that trace at its span cap rather than growing it.
func TestCommitTraceStaysBounded(t *testing.T) {
	g, tax := buildSample(t)
	tr := NewTrace("build")
	idx, err := BuildIndex(g, NewLin(tax), IndexOptions{
		NumWalks: 20, WalkLength: 4, Theta: 0.05, SLINGCutoff: 0.1, Seed: 3,
		Trace: tr, ShadowRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	a, _ := g.NodeByName("a")
	f, _ := g.NodeByName("f")
	for i := 0; i < obs.MaxTraceSpans; i++ {
		m := idx.NewMutator()
		if i%2 == 0 {
			m.AddEdge(a, f, "co-author", 1)
		} else {
			m.RemoveEdge(a, f, "co-author")
		}
		if _, err := m.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(tr.Spans()); n != obs.MaxTraceSpans {
		t.Errorf("build trace holds %d spans after %d commits, want its cap %d",
			n, obs.MaxTraceSpans, obs.MaxTraceSpans)
	}
	if !strings.Contains(tr.String(), "older spans dropped") {
		t.Error("build trace reports no dropped spans after overflowing its cap")
	}
}

// TestShadowQueryAllocFree: offering queries to the shadow verifier
// must not allocate on the hot path (the nil-is-off contract extends to
// the enabled path: value-struct channel sends only).
func TestShadowQueryAllocFree(t *testing.T) {
	g, tax := buildSample(t)
	lin := NewLin(tax)
	idx, err := BuildIndex(g, lin, IndexOptions{
		NumWalks: 50, WalkLength: 8, Theta: 0.05, SLINGCutoff: 0.1, Seed: 5,
		SemanticKernel: "on", ShadowRate: 256, ShadowQueue: 4096,
	})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	defer idx.Close()
	if err := warmKernel(idx); err != nil {
		t.Fatal(err)
	}
	a, _ := g.NodeByName("a")
	b, _ := g.NodeByName("b")
	allocs := testing.AllocsPerRun(500, func() {
		idx.Query(a, b)
	})
	if allocs != 0 {
		t.Errorf("Query with shadow enabled allocates %v per call, want 0", allocs)
	}
}

// warmKernel touches every pair once so lazy layers (kernel memo,
// SLING cache) are populated before an allocation measurement.
func warmKernel(idx *Index) error {
	n := idx.Graph().NumNodes()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			idx.Query(NodeID(u), NodeID(v))
		}
	}
	// Give the shadow worker a beat to drain so its verifications do not
	// overlap the measurement window.
	time.Sleep(10 * time.Millisecond)
	return nil
}
