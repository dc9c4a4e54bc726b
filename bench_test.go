package semsim_test

// One benchmark per table and figure of the paper's evaluation (Section 5)
// — each wraps the corresponding internal/experiments driver at a reduced
// scale so `go test -bench=.` regenerates every result — plus
// micro-benchmarks for the individual subsystems (walk sampling, semantic
// lookups, the three single-pair query paths of Figure 4).
//
// Run everything:     go test -bench=. -benchmem
// Full-size tables:   go run ./cmd/experiments -run all [-scale paper]

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"semsim"
	"semsim/internal/datagen"
	"semsim/internal/engine"
	"semsim/internal/experiments"
	"semsim/internal/hin"
	"semsim/internal/mc"
	"semsim/internal/obs"
	"semsim/internal/obs/slo"
	"semsim/internal/semantic"
	"semsim/internal/simrank"
	"semsim/internal/walk"
)

// BenchmarkFigure3Convergence regenerates the Figure 3 convergence curves.
func BenchmarkFigure3Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Convergence(experiments.ConvergenceConfig{
			Authors: 150, Items: 150, Iterations: 6, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) != 4 {
			b.Fatal("bad series count")
		}
	}
}

// BenchmarkTable3G2Reduction regenerates the Table 3 G^2 size comparison.
func BenchmarkTable3G2Reduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.G2Reduction(experiments.G2Config{
			Authors: 150, Articles: 150, Seed: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 6 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkFigure4QueryTimes regenerates the Figure 4 timing sweeps (both
// panels plus the SLING rows of Section 5.2).
func BenchmarkFigure4QueryTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.QueryTimes(experiments.QueryTimesConfig{
			Items: 200, NumWalksSweep: []int{50, 100}, LengthSweep: []int{5, 10},
			Queries: 50, Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.ByNumWalks) != 2 {
			b.Fatal("bad sweep")
		}
	}
}

// BenchmarkTable4Accuracy regenerates the Table 4 approximation-accuracy
// statistics.
func BenchmarkTable4Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Accuracy(experiments.AccuracyConfig{
			Authors: 100, Items: 100, Pairs: 50, Runs: 5,
			NumWalks: 60, Length: 8, Seed: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Datasets) != 2 {
			b.Fatal("bad datasets")
		}
	}
}

// BenchmarkTable5Relatedness regenerates the Table 5 term-relatedness
// comparison.
func BenchmarkTable5Relatedness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Relatedness(experiments.RelatednessConfig{
			Articles: 120, Nouns: 200, Pairs: 60, NumWalks: 40, Length: 8, Seed: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows[0]) != 10 {
			b.Fatal("bad methods")
		}
	}
}

// BenchmarkFigure5aLinkPrediction regenerates the Figure 5(a) hit-rate
// curves.
func BenchmarkFigure5aLinkPrediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.LinkPrediction(experiments.PredictionConfig{
			Items: 150, RemovedEdges: 15, Ks: []int{5, 10},
			NumWalks: 40, Length: 6, Seed: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Curves) != 7 {
			b.Fatal("bad curves")
		}
	}
}

// BenchmarkFigure5bEntityResolution regenerates the Figure 5(b) precision
// curves.
func BenchmarkFigure5bEntityResolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.EntityResolution(experiments.PredictionConfig{
			Authors: 120, Duplicates: 10, Ks: []int{5, 10},
			NumWalks: 40, Length: 6, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Curves) != 7 {
			b.Fatal("bad curves")
		}
	}
}

// BenchmarkPreprocessing regenerates the Section 5.2 offline-cost report.
func BenchmarkPreprocessing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Preprocessing(experiments.PreprocessingConfig{
			Authors: 100, Items: 100, Articles: 100, Nouns: 200,
			NumWalks: 20, Length: 5, Seed: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 4 {
			b.Fatal("bad rows")
		}
	}
}

// --- Micro-benchmarks -------------------------------------------------

// benchEnv builds a shared medium graph + walk index once.
type benchEnv struct {
	d    *datagen.Dataset
	ix   *walk.Index
	est  *mc.Estimator // SemSim, no pruning
	prn  *mc.Estimator // SemSim + pruning + SLING
	prnM *mc.Estimator // SemSim + pruning + SLING + live metrics registry
	krn  *mc.Estimator // SemSim + pruning + semantic kernel + dense-warmed SLING
	kern *semantic.Kernel
	meet *walk.MeetIndex
	// srv and srvM are the stack `semsim serve` answers top-k from by
	// default — krn's walks, semantic kernel and dense SO table, plus
	// the meet index and the planner — with metrics off and on. Every
	// top-k strategy benchmark runs on srv, so their ratios are the
	// planner's inputs.
	srv  engine.Backend
	srvM engine.Backend
	sr   *simrank.MC   // SimRank
	idx  *semsim.Index // public facade index
	idxM *semsim.Index // public facade index with metrics enabled
}

var envCache *benchEnv

func env(b *testing.B) *benchEnv {
	b.Helper()
	if envCache != nil {
		return envCache
	}
	d, err := datagen.Amazon(datagen.AmazonConfig{Items: 600, Seed: 99})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := walk.Build(d.Graph, walk.Options{NumWalks: 150, Length: 15, Seed: 1, Parallel: true})
	if err != nil {
		b.Fatal(err)
	}
	est, err := mc.New(ix, d.Lin, mc.Options{C: 0.6})
	if err != nil {
		b.Fatal(err)
	}
	// Both striped-map caches are precomputed (the offline SLING build)
	// so every repetition of every benchmark sees the same warm cache —
	// lazy fills would charge their map growth to whichever rep first
	// visits a pair.
	cache := mc.NewSOCache(d.Graph, d.Lin, 0.1)
	cache.Precompute()
	prn, err := mc.New(ix, d.Lin, mc.Options{C: 0.6, Theta: 0.05, Cache: cache})
	if err != nil {
		b.Fatal(err)
	}
	sr, err := simrank.NewMC(ix, 0.6)
	if err != nil {
		b.Fatal(err)
	}
	cacheM := mc.NewSOCache(d.Graph, d.Lin, 0.1)
	cacheM.Precompute()
	prnM, err := mc.New(ix, d.Lin, mc.Options{
		C: 0.6, Theta: 0.05, Cache: cacheM,
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	kern, err := semantic.NewKernel(d.Lin, d.Graph.NumNodes(), semantic.KernelOptions{})
	if err != nil {
		b.Fatal(err)
	}
	kcache := mc.NewSOCache(d.Graph, kern, 0.1)
	if !kcache.EnableDense(0, 0) {
		b.Fatal("dense SO warm refused the benchmark graph")
	}
	krn, err := mc.New(ix, kern, mc.Options{C: 0.6, Theta: 0.05, Cache: kcache})
	if err != nil {
		b.Fatal(err)
	}
	meet := walk.BuildMeetIndex(ix)
	st := engine.CollectStats(d.Graph, ix, meet)
	st.DenseSemKernel = kern.DenseMode()
	srv, err := engine.New("mc", engine.Config{Graph: d.Graph, Sem: kern, Estimator: krn, Walks: ix,
		Meet: meet, Planner: engine.NewPlanner(st, nil)})
	if err != nil {
		b.Fatal(err)
	}
	regM := obs.NewRegistry()
	krnM, err := mc.New(ix, kern, mc.Options{C: 0.6, Theta: 0.05, Cache: kcache, Metrics: regM})
	if err != nil {
		b.Fatal(err)
	}
	srvM, err := engine.New("mc", engine.Config{Graph: d.Graph, Sem: kern, Estimator: krnM, Walks: ix,
		Meet: meet, Planner: engine.NewPlanner(st, regM)})
	if err != nil {
		b.Fatal(err)
	}
	// WarmCache keeps the facade benchmarks in steady state: a lazily
	// filled SLING cache charges map-growth allocations to whichever rep
	// first visits a source node, skewing the first -count repetition.
	idx, err := semsim.BuildIndex(d.Graph, d.Lin, semsim.IndexOptions{
		NumWalks: 150, WalkLength: 15, Theta: 0.05, SLINGCutoff: 0.1, Seed: 2, Parallel: true,
		WarmCache: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	idxM, err := semsim.BuildIndex(d.Graph, d.Lin, semsim.IndexOptions{
		NumWalks: 150, WalkLength: 15, Theta: 0.05, SLINGCutoff: 0.1, Seed: 2, Parallel: true,
		WarmCache: true, Metrics: semsim.NewMetrics(),
	})
	if err != nil {
		b.Fatal(err)
	}
	envCache = &benchEnv{d: d, ix: ix, est: est, prn: prn, prnM: prnM, krn: krn, kern: kern,
		meet: meet, srv: srv, srvM: srvM, sr: sr, idx: idx, idxM: idxM}
	return envCache
}

func pairAt(e *benchEnv, i int) (hin.NodeID, hin.NodeID) {
	n := e.d.Graph.NumNodes()
	return hin.NodeID(i * 7 % n), hin.NodeID((i*13 + 1) % n)
}

// BenchmarkWalkIndexBuild measures the offline walk-sampling phase.
func BenchmarkWalkIndexBuild(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix, err := walk.Build(e.d.Graph, walk.Options{NumWalks: 50, Length: 10, Seed: int64(i), Parallel: true})
		if err != nil {
			b.Fatal(err)
		}
		_ = ix
	}
}

// BenchmarkCommitSmallEdit measures the epoch-snapshot commit path for
// the smallest real mutation: a single edge toggled on and off between
// two fixed nodes. Each iteration is one full Commit — incremental walk
// repair through the touched endpoints, SO-cache invalidation and
// migration, kernel refresh and the atomic snapshot swap — so ns/op is
// the floor for mutation latency, not throughput under batching.
func BenchmarkCommitSmallEdit(b *testing.B) {
	d, err := datagen.Amazon(datagen.AmazonConfig{Items: 200, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := semsim.BuildIndex(d.Graph, d.Lin, semsim.IndexOptions{
		NumWalks: 50, WalkLength: 10, C: 0.6, Theta: 0.05,
		SLINGCutoff: 0.1, WarmCache: true, Seed: 7, MeetIndex: true,
		Workers: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	u, v := semsim.NodeID(1), semsim.NodeID(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := idx.NewMutator()
		if i%2 == 0 {
			m.AddEdge(u, v, "bench-edit", 1)
		} else {
			m.RemoveEdge(u, v, "bench-edit")
		}
		if _, err := m.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuerySimRankMC is the SimRank single-pair query of Figure 4.
func BenchmarkQuerySimRankMC(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u, v := pairAt(e, i)
		e.sr.Query(u, v)
	}
}

// BenchmarkQuerySemSimMC is the un-pruned SemSim query of Figure 4.
func BenchmarkQuerySemSimMC(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u, v := pairAt(e, i)
		e.est.Query(u, v)
	}
}

// BenchmarkQuerySemSimPrunedSLING is the pruned+cached SemSim query of
// Figure 4 (the configuration the paper reports as on par with SimRank).
// The SLING cache is precomputed at env build and the benchmark's pair
// cycle is re-queried before timing, so the numbers reflect the steady
// state, not the cold fill.
func BenchmarkQuerySemSimPrunedSLING(b *testing.B) {
	e := env(b)
	for i := 0; i < 1024; i++ {
		u, v := pairAt(e, i)
		e.prn.Query(u, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := pairAt(e, i)
		e.prn.Query(u, v)
	}
}

// BenchmarkQuerySemSimPrunedSLINGMetrics is the same pruned+cached query
// with a live metrics registry attached — the delta against
// BenchmarkQuerySemSimPrunedSLING is the full observability overhead
// (budget: <= 2%, 0 extra allocs/op).
func BenchmarkQuerySemSimPrunedSLINGMetrics(b *testing.B) {
	e := env(b)
	for i := 0; i < 1024; i++ {
		u, v := pairAt(e, i)
		e.prnM.Query(u, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := pairAt(e, i)
		e.prnM.Query(u, v)
	}
}

// BenchmarkQuerySemSimKernel is the tentpole configuration: pruning, the
// dense-warmed SLING SO table and the precomputed semantic kernel. Same
// workload and pairs as BenchmarkQuerySemSimPrunedSLING; scores are
// bit-identical (asserted below), only the per-step lookups change —
// sem(u,v) and SO(a,b) each become one array read.
// BenchmarkQueryCostOff / BenchmarkQueryCostOn are the cost-accounting
// overhead twins: the same warm pruned+SLING single-pair query with
// accounting disabled (nil *Cost — the production default path) and
// enabled (a reused stack accumulator, as serve threads per request).
// The bench-drift guard holds their allocation counts equal (both 0 on
// the warm path) and their latency within the drift budget, enforcing
// the "accounting is free when off, cheap when on" contract.
func BenchmarkQueryCostOff(b *testing.B) {
	e := env(b)
	for i := 0; i < 1024; i++ {
		u, v := pairAt(e, i)
		e.prn.QueryCost(u, v, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := pairAt(e, i)
		e.prn.QueryCost(u, v, nil)
	}
}

func BenchmarkQueryCostOn(b *testing.B) {
	e := env(b)
	var c obs.Cost
	for i := 0; i < 1024; i++ {
		u, v := pairAt(e, i)
		e.prn.QueryCost(u, v, &c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := pairAt(e, i)
		c = obs.Cost{}
		e.prn.QueryCost(u, v, &c)
	}
}

// BenchmarkTopKCostOn is the accounting-enabled twin of the parallel
// top-k path (worker-local accumulators merged after the join).
func BenchmarkTopKCostOn(b *testing.B) {
	e := env(b)
	n := e.d.Graph.NumNodes()
	var c obs.Cost
	e.prn.TopKCost(0, 10, &c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c = obs.Cost{}
		e.prn.TopKCost(hin.NodeID(i%n), 10, &c)
	}
}

func BenchmarkQuerySemSimKernel(b *testing.B) {
	e := env(b)
	for i := 0; i < 1024; i++ {
		u, v := pairAt(e, i)
		if got, want := e.krn.Query(u, v), e.prn.Query(u, v); got != want {
			b.Fatalf("kernel path diverged at pair %d: %v != %v", i, got, want)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := pairAt(e, i)
		e.krn.Query(u, v)
	}
}

// BenchmarkKernelBuild measures the offline kernel construction (concept
// classing + dense concept-pair matrix fill) on the benchmark taxonomy.
func BenchmarkKernelBuild(b *testing.B) {
	e := env(b)
	n := e.d.Graph.NumNodes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := semantic.NewKernel(e.d.Lin, n, semantic.KernelOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSOCacheDenseWarm measures the offline dense SO-table warm
// (every pair probed, sem >= cutoff pairs materialized).
func BenchmarkSOCacheDenseWarm(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := mc.NewSOCache(e.d.Graph, e.kern, 0.1)
		if !c.EnableDense(0, 0) {
			b.Fatal("dense warm refused")
		}
	}
}

// BenchmarkLinLookup measures the constant-time semantic similarity the
// complexity analysis assumes (taxonomy IC + O(1) LCA).
func BenchmarkLinLookup(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u, v := pairAt(e, i)
		e.d.Lin.Sim(u, v)
	}
}

// BenchmarkLCAQuery measures the Euler-tour sparse-table LCA.
func BenchmarkLCAQuery(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u, v := pairAt(e, i)
		e.d.Tax.LCA(int32(u), int32(v))
	}
}

// benchTopK10 times top-10 searches from the pairAt sources, after one
// warm search.
func benchTopK10(b *testing.B, topk func(e *benchEnv, u hin.NodeID) ([]semsim.Scored, error)) {
	e := env(b)
	if _, err := topk(e, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, _ := pairAt(e, i)
		if _, err := topk(e, u); err != nil {
			b.Fatal(err)
		}
	}
}

// forcedTopK10 runs top-10 on the serve stack forced onto strategy s.
func forcedTopK10(s engine.Strategy) func(e *benchEnv, u hin.NodeID) ([]semsim.Scored, error) {
	return func(e *benchEnv, u hin.NodeID) ([]semsim.Scored, error) {
		return e.srv.(engine.StrategyRunner).TopKWithStrategy(u, 10, s)
	}
}

// BenchmarkTopK10 measures the brute-force top-10 scan on the serve
// stack: every candidate probed, fanned across the scoring pool.
func BenchmarkTopK10(b *testing.B) { benchTopK10(b, forcedTopK10(engine.StrategyBrute)) }

// BenchmarkTopK10Metrics is the instrumented twin of
// BenchmarkTopK10AutoPlan: the planner-routed top-10 with the
// estimator's per-search instruments and the plan counters live.
func BenchmarkTopK10Metrics(b *testing.B) {
	benchTopK10(b, func(e *benchEnv, u hin.NodeID) ([]semsim.Scored, error) { return e.srvM.TopK(u, 10) })
}

// --- Capacity benchmarks (v3 walk format, lazy residency) ------------

// writeBenchWalks serializes the shared walk index into a temp v3 file
// for the lazy-residency benchmarks.
func writeBenchWalks(b *testing.B, e *benchEnv) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "walks.v3")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.ix.WriteTo(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkQueryCold is the lazy-residency query path under cache
// pressure: the walk file is opened demand-paged with a block-cache
// budget far below the decoded index size, so queries keep faulting
// blocks through decode + eviction. Compare against
// BenchmarkQuerySemSimMC (same estimator configuration, fully resident)
// for the price of serving an index that does not fit in RAM.
func BenchmarkQueryCold(b *testing.B) {
	e := env(b)
	lazy, err := walk.OpenLazyFile(writeBenchWalks(b, e), e.d.Graph,
		walk.LazyOptions{CacheBytes: 256 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer lazy.Close()
	est, err := mc.New(lazy, e.d.Lin, mc.Options{C: 0.6})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := pairAt(e, i)
		est.Query(u, v)
	}
	if n := lazy.DecodeErrors(); n != 0 {
		b.Fatalf("%d decode errors: %v", n, lazy.LastDecodeErr())
	}
}

// BenchmarkLoadV3 measures the full (resident) load of a v3 walk file —
// the process-restart cost SaveWalks exists to amortize. MB/s is
// against the compressed on-disk size.
func BenchmarkLoadV3(b *testing.B) {
	e := env(b)
	var buf bytes.Buffer
	if _, err := e.ix.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := walk.Load(bytes.NewReader(buf.Bytes()), e.d.Graph); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Estimate-quality benchmarks -------------------------------------

// shadowEnv holds the shadow-overhead twin indexes. They live on a
// smaller AMiner graph than the main benchEnv because the shadow-on
// index builds an exact reference backend at construction — affordable
// here, hours on the Amazon graph's retained pair set. The smaller
// graph also makes the comparison conservative: queries are cheaper, so
// the fixed per-query shadow cost is a larger fraction of ns/op.
type shadowEnv struct {
	off *semsim.Index // instrumented, shadow disabled
	on  *semsim.Index // identical, shadow verifier at 1/256
	n   int
}

var shadowEnvCache *shadowEnv

func shadowTwins(b *testing.B) *shadowEnv {
	b.Helper()
	if shadowEnvCache != nil {
		return shadowEnvCache
	}
	d, err := datagen.AMiner(datagen.AMinerConfig{Authors: 150, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	opts := semsim.IndexOptions{
		NumWalks: 150, WalkLength: 15, Theta: 0.05, SLINGCutoff: 0.1, Seed: 3, Parallel: true,
		WarmCache: true,
	}
	opts.Metrics = semsim.NewMetrics()
	off, err := semsim.BuildIndex(d.Graph, d.Lin, opts)
	if err != nil {
		b.Fatal(err)
	}
	opts.Metrics = semsim.NewMetrics()
	opts.ShadowRate = 256
	opts.ShadowBackend = "exact"
	opts.ShadowQueue = 4096
	on, err := semsim.BuildIndex(d.Graph, d.Lin, opts)
	if err != nil {
		b.Fatal(err)
	}
	shadowEnvCache = &shadowEnv{off: off, on: on, n: d.Graph.NumNodes()}
	return shadowEnvCache
}

// BenchmarkQueryShadowOff / BenchmarkQueryShadowSampled are the shadow
// overhead twins: identical instrumented facade indexes, the second with
// the shadow verifier sampling 1 in 256 queries onto a background
// worker. The budget is <= 2% ns/op and 0 allocs/op delta — the hot
// path pays one atomic counter and, every 256th call, one value-struct
// channel send.

func BenchmarkQueryShadowOff(b *testing.B) {
	e := shadowTwins(b)
	for i := 0; i < 1024; i++ {
		e.off.Query(hin.NodeID(i*7%e.n), hin.NodeID((i*13+1)%e.n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.off.Query(hin.NodeID(i*7%e.n), hin.NodeID((i*13+1)%e.n))
	}
}

func BenchmarkQueryShadowSampled(b *testing.B) {
	e := shadowTwins(b)
	for i := 0; i < 1024; i++ {
		e.on.Query(hin.NodeID(i*7%e.n), hin.NodeID((i*13+1)%e.n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.on.Query(hin.NodeID(i*7%e.n), hin.NodeID((i*13+1)%e.n))
	}
}

// linearEnv holds an index on the "linear" backend: same small AMiner
// graph as the shadow twins (the backend's solve state is O(n^2), so the
// 150-author graph keeps construction and memory modest) with the meet
// index on, so SingleSource exercises the solved-matrix row scan.
type linearBenchEnv struct {
	idx *semsim.Index
	n   int
}

var linearEnvCache *linearBenchEnv

func linearEnv(b *testing.B) *linearBenchEnv {
	b.Helper()
	if linearEnvCache != nil {
		return linearEnvCache
	}
	d, err := datagen.AMiner(datagen.AMinerConfig{Authors: 150, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := semsim.BuildIndex(d.Graph, d.Lin, semsim.IndexOptions{
		NumWalks: 150, WalkLength: 15, Theta: 0.05, Seed: 3, Parallel: true,
		MeetIndex: true, Backend: "linear",
	})
	if err != nil {
		b.Fatal(err)
	}
	linearEnvCache = &linearBenchEnv{idx: idx, n: d.Graph.NumNodes()}
	return linearEnvCache
}

// BenchmarkQueryLinear / BenchmarkSingleSourceLinear measure the linear
// backend's query path: the Gauss-Seidel solve runs once at build, so a
// query is one triangular-matrix read and single-source one row scan —
// the floor the sampling backends' per-query walk scoring compares
// against.

func BenchmarkQueryLinear(b *testing.B) {
	e := linearEnv(b)
	for i := 0; i < 1024; i++ {
		e.idx.Query(hin.NodeID(i*7%e.n), hin.NodeID((i*13+1)%e.n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.idx.Query(hin.NodeID(i*7%e.n), hin.NodeID((i*13+1)%e.n))
	}
}

func BenchmarkSingleSourceLinear(b *testing.B) {
	e := linearEnv(b)
	if _, err := e.idx.SingleSource(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.idx.SingleSource(hin.NodeID(i * 7 % e.n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExplainQuery measures the /explain evidence path against
// BenchmarkQuerySemSimPrunedSLINGMetrics (same graph, same pairs, same
// instrumented configuration): the delta is the cost of recording
// per-step meeting counts and the CLT/skewness statistics, plus the
// Explanation allocation itself. Explaining is per-request opt-in, so
// this cost is only paid when asked for.
func BenchmarkExplainQuery(b *testing.B) {
	e := env(b)
	n := e.d.Graph.NumNodes()
	for i := 0; i < 1024; i++ {
		e.idxM.Query(hin.NodeID(i*7%n), hin.NodeID((i*13+1)%n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := pairAt(e, i)
		if _, err := e.idxM.ExplainQuery(u, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSemSimExactIterative measures one full iterative solve on a
// small graph (the ground-truth path of Tables 4/5).
func BenchmarkSemSimExactIterative(b *testing.B) {
	d, err := datagen.AMiner(datagen.AMinerConfig{Authors: 150, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := semsim.Exact(d.Graph, d.Lin, semsim.ExactOptions{C: 0.6, MaxIterations: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecayUpperBound measures the Theorem 2.3(5) bound scan
// (sampled).
func BenchmarkDecayUpperBound(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		semsim.DecayUpperBound(e.d.Graph, e.d.Lin, 2000)
	}
}

// BenchmarkAblation regenerates the design-choice ablation tables
// (definition ingredients + pruning threshold sweep).
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablation(experiments.AblationConfig{
			Nouns: 150, Pairs: 50, Items: 120, QueryPairs: 40, Seed: 9,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Variants) != 5 {
			b.Fatal("bad variants")
		}
	}
}

// BenchmarkTopK10MeetIndex measures collision-driven top-10 (the
// single-source enumeration over u's meet-index cells) on the serve
// stack.
func BenchmarkTopK10MeetIndex(b *testing.B) {
	benchTopK10(b, forcedTopK10(engine.StrategyCollision))
}

// BenchmarkTopK10SemBounded measures the Prop 2.5 early-terminated
// top-10 search on the serve stack.
func BenchmarkTopK10SemBounded(b *testing.B) {
	benchTopK10(b, forcedTopK10(engine.StrategySemBounded))
}

// BenchmarkSingleSource measures full single-source enumeration via the
// inverted meeting index.
func BenchmarkSingleSource(b *testing.B) {
	e := env(b)
	e.prn.SingleSource(0, e.meet)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, _ := pairAt(e, i)
		e.prn.SingleSource(u, e.meet)
	}
}

// BenchmarkMeetIndexBuild measures the inverted-index construction.
func BenchmarkMeetIndexBuild(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		walk.BuildMeetIndex(e.ix)
	}
}

// BenchmarkBatchQueryParallel measures concurrent batched queries.
func BenchmarkBatchQueryParallel(b *testing.B) {
	e := env(b)
	n := e.d.Graph.NumNodes()
	pairs := make([][2]hin.NodeID, 512)
	for i := range pairs {
		pairs[i] = [2]hin.NodeID{hin.NodeID(i * 3 % n), hin.NodeID((i*11 + 2) % n)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.BatchQuery(e.ix, e.d.Lin, mc.Options{C: 0.6, Theta: 0.05,
			Cache: mc.NewSOCache(e.d.Graph, e.d.Lin, 0.1)}, pairs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Concurrency benchmarks ------------------------------------------
//
// The serial/parallel pairs below quantify the shared-cache concurrent
// query engine: one cached Index serves all goroutines (RunParallel uses
// GOMAXPROCS workers). Compare ns/op of BenchmarkQueryParallel against
// BenchmarkQuerySerialBaseline for the throughput multiple.

// queryIndex builds the cached index the concurrency benchmarks share.
func queryIndex(b *testing.B) (*semsim.Index, int) {
	b.Helper()
	e := env(b)
	return e.idx, e.d.Graph.NumNodes()
}

// BenchmarkQuerySerialBaseline is the single-goroutine reference for
// BenchmarkQueryParallel, on the same cached index.
func BenchmarkQuerySerialBaseline(b *testing.B) {
	idx, n := queryIndex(b)
	for i := 0; i < 1024; i++ {
		idx.Query(hin.NodeID(i*7%n), hin.NodeID((i*13+1)%n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := hin.NodeID(i*7%n), hin.NodeID((i*13+1)%n)
		idx.Query(u, v)
	}
}

// BenchmarkQueryParallel drives concurrent single-pair queries through
// one shared Index and SLING cache. On a multi-core runner throughput
// should scale with GOMAXPROCS (>= 2x the serial baseline) because the
// hot path takes no locks beyond the cache's read-mostly stripes.
func BenchmarkQueryParallel(b *testing.B) {
	idx, n := queryIndex(b)
	for i := 0; i < 1024; i++ {
		idx.Query(hin.NodeID(i*7%n), hin.NodeID((i*13+1)%n))
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			u, v := hin.NodeID(i*7%n), hin.NodeID((i*13+1)%n)
			idx.Query(u, v)
			i++
		}
	})
}

// BenchmarkTopK10Parallel measures concurrent top-10 searches sharing
// one index (each TopK additionally fans its candidate scan across the
// internal pool).
func BenchmarkTopK10Parallel(b *testing.B) {
	idx, n := queryIndex(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			idx.TopK(hin.NodeID(i*7%n), 10)
			i++
		}
	})
}

// BenchmarkBatchQuerySharedCache measures the reworked batch path: all
// workers share the index's estimator and cache (contrast with
// BenchmarkBatchQueryParallel, which reconstructs caches per call).
func BenchmarkBatchQuerySharedCache(b *testing.B) {
	idx, n := queryIndex(b)
	pairs := make([][2]hin.NodeID, 512)
	for i := range pairs {
		pairs[i] = [2]hin.NodeID{hin.NodeID(i * 3 % n), hin.NodeID((i*11 + 2) % n)}
	}
	if _, err := idx.BatchQuery(pairs, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.BatchQuery(pairs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopK10AutoPlan measures top-10 search with the planner
// choosing the strategy on the serve stack; it should be within noise
// of whichever of BenchmarkTopK10 (brute), BenchmarkTopK10MeetIndex
// (collision) and BenchmarkTopK10SemBounded it picks.
func BenchmarkTopK10AutoPlan(b *testing.B) {
	benchTopK10(b, func(e *benchEnv, u hin.NodeID) ([]semsim.Scored, error) { return e.srv.TopK(u, 10) })
}

// BenchmarkIndexRefresh measures incremental walk maintenance after a
// single-node in-neighborhood change.
func BenchmarkIndexRefresh(b *testing.B) {
	e := env(b)
	changed := []hin.NodeID{hin.NodeID(7)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.ix.Refresh(e.d.Graph, changed, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuerySLOOff / BenchmarkQuerySLOTracked are the serving-SLO
// overhead twins: the same facade query with the per-request SLO
// observation the serve wrap layer adds — first against a nil tracker
// (the disabled state, a single nil check), then against a live
// multi-window tracker. The budget is <= 2% ns/op and 0 allocs/op
// delta: Observe is one clock read, one slot index and four atomic
// adds.

func BenchmarkQuerySLOOff(b *testing.B) {
	e := shadowTwins(b)
	var tracker *slo.Tracker
	for i := 0; i < 1024; i++ {
		e.off.Query(hin.NodeID(i*7%e.n), hin.NodeID((i*13+1)%e.n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		e.off.Query(hin.NodeID(i*7%e.n), hin.NodeID((i*13+1)%e.n))
		tracker.Observe(time.Since(t0), false)
	}
}

func BenchmarkQuerySLOTracked(b *testing.B) {
	e := shadowTwins(b)
	tracker := slo.New(slo.Config{
		Objective:        0.99,
		LatencyThreshold: 50 * time.Millisecond,
	}, nil)
	if tracker == nil {
		b.Fatal("tracker did not arm")
	}
	for i := 0; i < 1024; i++ {
		e.off.Query(hin.NodeID(i*7%e.n), hin.NodeID((i*13+1)%e.n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		e.off.Query(hin.NodeID(i*7%e.n), hin.NodeID((i*13+1)%e.n))
		tracker.Observe(time.Since(t0), false)
	}
}
