package semsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"sync/atomic"

	"semsim/internal/engine"
	"semsim/internal/mc"
	"semsim/internal/obs/quality"
	"semsim/internal/pairgraph"
	"semsim/internal/rank"
	"semsim/internal/semantic"
	"semsim/internal/simrank"
	"semsim/internal/walk"
)

// errNoMeetIndex is returned by SingleSource when the backend cannot
// enumerate single-source results (the default mc backend without
// IndexOptions.MeetIndex).
var errNoMeetIndex = errors.New("semsim: index built without MeetIndex; set IndexOptions.MeetIndex")

// Scored pairs a node with a similarity score (top-k search results).
type Scored = rank.Scored

// IndexOptions configure BuildIndex: the precomputed walk index plus the
// Monte-Carlo estimator of Algorithm 1.
type IndexOptions struct {
	// NumWalks is n_w, walks per node (paper default 150).
	NumWalks int
	// WalkLength is t, the truncation point (paper default 15).
	WalkLength int
	// C is the decay factor (paper default 0.6).
	C float64
	// Theta enables pruning when > 0 (paper default 0.05): semantically
	// distant pairs score 0 and low-mass walks are capped, adding a
	// one-sided error bounded by Theta.
	Theta float64
	// SLINGCutoff, when > 0, attaches the SLING-style cache that
	// memoizes the O(d^2) per-step normalization for pairs with
	// sem >= cutoff (paper uses 0.1). 0 disables the cache.
	SLINGCutoff float64
	// SemanticKernel controls the precomputed semantic layer
	// (semantic.Kernel) wrapped around the measure before any estimator
	// or cache sees it:
	//
	//   - "" or "auto" (the default): wrap the stock immutable measures
	//     (Lin, Resnik, Wu-Palmer, Jiang-Conrath, Path, Uniform); leave
	//     Overrides, Funcs and other custom measures untouched, since
	//     the kernel snapshots values and would freeze later mutation;
	//   - "on": always wrap (custom measures fall back to per-node
	//     classes — still correct, just without concept collapsing);
	//   - "off": never wrap.
	//
	// The kernel turns every sem(u,v) on the query path into one array
	// read (dense mode) or a striped memo probe, with values
	// bit-identical to the wrapped measure.
	SemanticKernel string
	// KernelMemoryBudget caps the kernel's dense concept-pair matrix in
	// bytes (0 uses semantic.DefaultKernelBudget, 64 MiB). Above the
	// budget the kernel falls back to its sharded memo cache.
	KernelMemoryBudget int64
	// Seed makes the index deterministic.
	Seed int64
	// Parallel shards walk sampling across CPUs.
	Parallel bool
	// MeetIndex additionally builds the inverted (walk, step, node)
	// meeting index, enabling SingleSource queries and collision-driven
	// TopK (cost: two passes over the walks plus ~2x walk storage).
	MeetIndex bool
	// LazyWalks selects the lazy walk residency mode in OpenIndexFile:
	// only the v3 block directory is read up front, and walk blocks are
	// decoded on demand into a bounded cache — indexes larger than RAM
	// serve, at the price of a cache probe per query node. Requires a
	// v3-format walk file (see Index.SaveWalksFormat / semsim convert).
	// BuildIndex and LoadIndex ignore it: a freshly sampled index is
	// resident by construction, and a stream has no random access.
	LazyWalks bool
	// WalkCacheBytes caps the decoded bytes the lazy block cache keeps
	// resident (<= 0 uses the walk package default, 64 MiB). Only
	// meaningful with LazyWalks.
	WalkCacheBytes int64
	// Workers sizes the scoring pool used by TopK, SingleSource and
	// BatchQuery. 0 uses runtime.GOMAXPROCS(0); 1 forces serial scoring.
	Workers int
	// Metrics, when non-nil, attaches the observability layer: build
	// phases, query/top-k/single-source/batch latency histograms,
	// theta-pruning counters, pool gauges and SLING-cache statistics
	// all register into this registry (create one with NewMetrics;
	// read it with Index.Snapshot, Metrics.WriteText or expvar). When
	// nil — the default — every instrument compiles down to a nil
	// no-op: the hot path performs no atomic writes and allocates
	// nothing on its behalf.
	Metrics *Metrics
	// Trace, when non-nil, records BuildIndex's phases (walk sampling,
	// SLING cache init/warm, meet-index pass) as timed spans.
	Trace *Trace
	// WarmCache eagerly precomputes the SLING cache (the paper's
	// offline SLING build) instead of filling it lazily. Requires
	// SLINGCutoff > 0; the warm pass is timed into
	// semsim_build_cache_warm_seconds and the cache-warm trace span.
	WarmCache bool
	// Backend selects the engine backend that answers Query, TopK,
	// SingleSource and BatchQuery (see Backends for the registered
	// names):
	//
	//   - "mc" (the default, also ""): the pruned Monte-Carlo
	//     estimator of Algorithm 1 — approximate, scales to large
	//     graphs;
	//   - "reduced": the materialized G^2_theta of Section 3 — exact
	//     scores for retained pairs (sem > Theta), 0 for dropped ones;
	//   - "exact": the iterative all-pairs fixpoint of Section 2.3 —
	//     exact everywhere, small graphs only (it refuses graphs
	//     beyond a few thousand nodes);
	//   - "linear": the linearized Gauss-Seidel solve (Maehara et
	//     al.'s diagonal-correction formulation folded with the
	//     semantic factor) — exact to solver tolerance, typically
	//     converging in far fewer sweeps than "exact" needs
	//     iterations, same node cap. Convergence knobs:
	//     LinearMaxSweeps / LinearResidual / MaxLinearNodes.
	//
	// The walk index (and with it SaveWalks/SimRankQuery) is built for
	// every backend; non-mc backends additionally build and query
	// their own structure. Unknown names fail BuildIndex.
	Backend string
	// LinearMaxSweeps caps the Gauss-Seidel sweeps of the "linear"
	// backend's solve (0 uses the engine default, 100). The solve
	// stops earlier once the residual budget is met.
	LinearMaxSweeps int
	// LinearResidual is the "linear" backend's convergence target:
	// the solve stops once the largest per-sweep score change drops
	// to or below it (0 uses the engine default, 1e-9).
	LinearResidual float64
	// MaxLinearNodes caps the graph size the "linear" backend accepts
	// (0 uses the engine default, 4096); its solve state is O(n^2).
	MaxLinearNodes int
	// AutoPlan attaches the adaptive query planner: each TopK call
	// picks its execution strategy (collision-driven or brute scan, or
	// the linear backend's solved rows) from graph/walk statistics
	// recorded at build time, instead of the static caller-chosen
	// routing. Decisions are counted into Metrics as
	// semsim_plan_total{strategy="..."}. Results are identical across
	// the strategies it picks; only the work done per query changes.
	AutoPlan bool
	// ShadowRate, when > 0, attaches the shadow verifier: 1 of every
	// ShadowRate Query calls is re-scored on an exact reference backend
	// by a background worker (off the hot path, bounded queue, dropped
	// when full) and the absolute error is exported through Metrics as
	// semsim_shadow_abs_err / semsim_shadow_drift_total{severity=...} /
	// semsim_shadow_worst_abs_err. Query results are untouched — the
	// verifier observes scores after they are returned.
	//
	// Each epoch's reference is built in the background after the epoch
	// is published, so neither BuildIndex nor Commit waits for its
	// solve. One build runs at a time: a commit stops an older epoch's
	// in-flight build at its next sweep and the newest epoch's build
	// takes its place, so superseded epochs never get a reference. A
	// sample whose epoch has no reference (yet) is counted in
	// semsim_shadow_skipped_total instead of being verified.
	//
	// A "linear" reference first publishes the SLING cache's dense SO
	// table (when SLINGCutoff > 0 and the table fits its 64 MiB budget)
	// before the epoch itself, timed as the cache warm: the solve reads
	// its normalization from the table, and mc queries then read every
	// SO probe from it too, with bit-identical values. Call Index.Close
	// to stop the builder and the worker. The conventional production
	// rate is 256 (one query in 256).
	ShadowRate int
	// ShadowBackend names the reference backend the verifier re-scores
	// on ("linear", "exact" or "reduced"). It must be exact-capable —
	// a sampling reference would report its own noise as drift — and
	// BuildIndex rejects one that is not. Empty reuses the index's own
	// backend when it is exact and prunes nothing ("exact", "linear"),
	// and otherwise picks "linear" when the graph fits its node cap
	// (MaxLinearNodes); above the cap it builds no reference, logs why
	// once, and every sample is skipped. A named backend that is also
	// the index's own (and exact) is reused instead of building a
	// second copy.
	ShadowBackend string
	// ShadowQueue bounds the verifier's pending-sample queue (0 uses
	// the default, 256). A full queue drops samples, counted in
	// semsim_shadow_dropped_total.
	ShadowQueue int
}

// Backends lists the registered engine backend names, valid values for
// IndexOptions.Backend.
func Backends() []string { return engine.Names() }

// Index answers single-pair and top-k SemSim queries by delegating to a
// pluggable engine backend (IndexOptions.Backend): by default the
// Monte-Carlo estimator of Section 4 — O(n_w * t * d^2) average query
// time, O(n_w * t) with the SLING cache — optionally the exact reduced
// or iterative backends. Query routing can further be left to the
// adaptive planner (IndexOptions.AutoPlan).
//
// An Index is safe for concurrent use: any number of goroutines may call
// Query, TopK, TopKSemBounded, SingleSource, BatchQuery and SimRankQuery
// on a shared Index, including when the SLING cache is enabled (the
// cache is sharded with striped locks). The parallel results are
// identical to serial ones.
//
// The index is organized as an immutable epoch snapshot behind an
// atomic pointer: every query loads the current snapshot once and runs
// entirely on it, so graph mutations (NewMutator / Commit) never block
// readers and never produce torn reads — a query started before a
// commit finishes with answers bit-identical to the pre-commit epoch.
// Only SaveWalks remains a single-threaded operation with respect to
// commits.
type Index struct {
	snap    atomic.Pointer[snapshot]
	metrics *Metrics
	shadow  *quality.Shadow
	// refs builds each published epoch's shadow reference in the
	// background; nil when shadowing is off.
	refs *refBuilder
	// noRefOnce logs, once per index, why an epoch has no shadow
	// reference.
	noRefOnce sync.Once
	// opts and baseSem are what commits re-assemble successors from:
	// the original build options and the raw (pre-kernel) measure.
	opts    IndexOptions
	baseSem Measure
	// mu serializes Mutator commits; queries never take it. It also
	// guards retired.
	mu sync.Mutex
	// retired collects superseded lazy walk indexes (each holds a
	// reference on the shared walk file) so Close can release the file
	// handle; resident epochs need no release and are not tracked.
	retired []*walk.Index
}

// snapshot is one immutable epoch of the index: every read-only
// structure a query touches — graph, walk index, SLING cache, semantic
// kernel, meet index, planner and engine backend — published together
// behind Index.snap. A commit assembles a full successor off to the
// side and swaps the pointer; the old epoch keeps serving in-flight
// queries until its last reader drops it.
type snapshot struct {
	epoch   uint64
	g       *Graph
	sem     Measure // post-kernel measure this epoch scores with
	walks   *walk.Index
	est     *mc.Estimator
	srmc    *simrank.MC
	cache   *mc.SOCache
	meet    *walk.MeetIndex
	eng     engine.Backend
	planner *engine.Planner
	kernel  *semantic.Kernel
	// ref is this epoch's shadow reference, set once: at publish when
	// the serving backend is its own reference, else by the Index's
	// background builder. It stays nil with shadowing off, on an epoch
	// without a reference, and on one a newer commit superseded before
	// its build finished. refReady is closed when ref is set.
	ref      atomic.Pointer[shadowRef]
	refReady chan struct{}
}

// shadowRef is an epoch's built shadow reference. score is the
// backend's uncosted Query, bound once per epoch, so queueing a sample
// does not allocate.
type shadowRef struct {
	score func(u, v NodeID) (float64, error)
}

// setRef publishes eng as the epoch's shadow reference.
func (snap *snapshot) setRef(eng engine.Backend) {
	score := func(u, v NodeID) (float64, error) { return eng.Query(u, v, nil) }
	snap.ref.Store(&shadowRef{score: score})
	close(snap.refReady)
}

// BuildIndex samples the reversed-walk index for g and wires up the
// importance-sampling estimator for sem. With opts.Metrics set, each
// phase is timed into the registry; with opts.Trace set, the phases are
// additionally recorded as trace spans.
func BuildIndex(g *Graph, sem Measure, opts IndexOptions) (*Index, error) {
	if opts.C == 0 {
		opts.C = 0.6
	}
	buildLat := opts.Metrics.Histogram("semsim_build_seconds",
		"end-to-end BuildIndex wall time", nil)
	t0 := buildLat.Start()

	sp := opts.Trace.Start("walk-sample")
	ix, err := walk.Build(g, walk.Options{
		NumWalks: opts.NumWalks,
		Length:   opts.WalkLength,
		Seed:     opts.Seed,
		Parallel: opts.Parallel,
		Metrics:  opts.Metrics,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	idx, err := newIndex(g, sem, ix, opts)
	if err != nil {
		return nil, err
	}
	buildLat.ObserveSince(t0)
	return idx, nil
}

// newIndex assembles epoch 0 around the sampled walks, wraps it in the
// facade and attaches the shadow verifier (whose worker outlives
// individual epochs — each sample is pinned to the reference of the
// epoch that produced it) and the reference builder.
func newIndex(g *Graph, sem Measure, walks *walk.Index, opts IndexOptions) (*Index, error) {
	if opts.ShadowRate > 0 {
		switch opts.ShadowBackend {
		case "", "exact", "linear", "reduced":
		default:
			return nil, fmt.Errorf("semsim: shadow backend %q is not exact-capable (have exact, linear, reduced); drift against a sampling reference would measure its noise, not ours", opts.ShadowBackend)
		}
	}
	snap, err := assemble(g, sem, walks, opts, 0)
	if err != nil {
		return nil, err
	}
	idx := &Index{metrics: opts.Metrics, opts: opts, baseSem: sem}
	if opts.ShadowRate > 0 {
		// Drift severities anchor on the theta envelope (Prop 4.6): an
		// absolute error beyond theta means pruning ate more than its
		// one-sided budget plus the Monte-Carlo noise; beyond 2*theta
		// something is structurally wrong. With pruning off the paper's
		// default theta stands in as the yardstick.
		warn, crit := opts.Theta, 2*opts.Theta
		if opts.Theta == 0 {
			warn, crit = 0.05, 0.1
		}
		idx.shadow = quality.NewShadow(quality.ShadowConfig{
			Rate:          opts.ShadowRate,
			WarnThreshold: warn,
			CritThreshold: crit,
			QueueSize:     opts.ShadowQueue,
			Metrics:       opts.Metrics,
		})
		idx.refs = newRefBuilder(opts.Metrics, idx.buildRef)
	}
	idx.publish(snap)
	opts.Metrics.Gauge("semsim_mutator_epoch",
		"current index epoch: 0 at build, +1 per committed mutation batch").Set(0)
	return idx, nil
}

// publish makes snap the current epoch. What shadow verification changes
// on the read path is readied before the swap; the reference solve is
// handed to the background builder after it.
func (ix *Index) publish(snap *snapshot) {
	name := ix.prepareShadow(snap)
	ix.snap.Store(snap)
	if name != "" {
		ix.refs.submit(snap, name)
	}
}

// assemble wires the estimator stack (SLING cache, importance-sampling
// estimator, SimRank twin, meet index) around an existing walk index —
// the shared tail of BuildIndex, LoadIndex and Mutator.Commit — into
// one immutable snapshot, with per-phase metrics and trace spans.
func assemble(g *Graph, sem Measure, ix *walk.Index, opts IndexOptions, epoch uint64) (*snapshot, error) {
	var kern *semantic.Kernel
	if wrapKernel(sem, opts.SemanticKernel) {
		sp := opts.Trace.Start("semantic-kernel")
		k, err := semantic.NewKernel(sem, g.NumNodes(), semantic.KernelOptions{
			MemoryBudget: opts.KernelMemoryBudget,
			Workers:      opts.Workers,
			Metrics:      opts.Metrics,
		})
		sp.End()
		if err != nil {
			return nil, err
		}
		kern = k
		sem = k
	}
	var cache *mc.SOCache
	if opts.SLINGCutoff > 0 {
		sp := opts.Trace.Start("sling-cache-init")
		cache = mc.NewSOCache(g, sem, opts.SLINGCutoff)
		sp.End()
		if opts.WarmCache {
			warmSOCache(cache, opts, true)
		}
	}
	est, err := mc.New(ix, sem, mc.Options{
		C: opts.C, Theta: opts.Theta, Cache: cache,
		Workers: opts.Workers, Metrics: opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	srmc, err := simrank.NewMC(ix, opts.C)
	if err != nil {
		return nil, err
	}
	snap := &snapshot{epoch: epoch, g: g, sem: sem, walks: ix,
		est: est, srmc: srmc, cache: cache, kernel: kern,
		refReady: make(chan struct{})}
	if opts.MeetIndex {
		meetLat := opts.Metrics.Histogram("semsim_build_meet_index_seconds",
			"wall time of the inverted meet-index pass", nil)
		sp := opts.Trace.Start("meet-index")
		tm := meetLat.Start()
		snap.meet = walk.BuildMeetIndex(ix)
		meetLat.ObserveSince(tm)
		sp.End()
	}
	if err := snap.finish(opts); err != nil {
		return nil, err
	}
	return snap, nil
}

// finish completes a snapshot whose estimator stack is in place:
// planner statistics and the engine backend. Commit reuses it after
// repairing the walk/meet/cache/kernel structures incrementally.
func (snap *snapshot) finish(opts IndexOptions) error {
	if opts.AutoPlan {
		st := engine.CollectStats(snap.g, snap.walks, snap.meet)
		// The linear strategy is only routable when the backend that
		// owns the solved score matrix is the one answering queries.
		st.LinearSolved = opts.Backend == "linear"
		st.LinearMaxNodes = opts.MaxLinearNodes
		snap.planner = engine.NewPlanner(st, opts.Metrics)
	}
	backendLat := opts.Metrics.Histogram("semsim_build_backend_seconds",
		"wall time of the engine-backend construction (fixpoint solves for reduced/exact)", nil)
	sp := opts.Trace.Start("engine-backend")
	tb := backendLat.Start()
	eng, err := engine.New(opts.Backend, engine.Config{
		Graph: snap.g, Sem: snap.sem, C: opts.C, Theta: opts.Theta,
		Estimator: snap.est, Walks: snap.walks, Meet: snap.meet, Cache: snap.cache,
		Workers: opts.Workers, Metrics: opts.Metrics, Planner: snap.planner,
		LinearMaxSweeps: opts.LinearMaxSweeps, LinearResidual: opts.LinearResidual,
		MaxLinearNodes: opts.MaxLinearNodes,
	})
	backendLat.ObserveSince(tb)
	sp.End()
	if err != nil {
		return err
	}
	snap.eng = eng
	return nil
}

// warmSOCache is the eager SLING warm, timed into
// semsim_build_cache_warm_seconds and the sling-cache-warm span: it
// publishes the dense triangular SO table (one array read per probe)
// when the table fits its budget, else, with striped set, runs the
// parallel striped warm. Both store bit-identical values.
func warmSOCache(cache *mc.SOCache, opts IndexOptions, striped bool) {
	warmLat := opts.Metrics.Histogram("semsim_build_cache_warm_seconds",
		"wall time of the eager SLING cache precomputation", nil)
	sp := opts.Trace.Start("sling-cache-warm")
	tw := warmLat.Start()
	if !cache.EnableDense(0, opts.Workers) && striped {
		cache.PrecomputeParallel(opts.Workers)
	}
	warmLat.ObserveSince(tw)
	sp.End()
}

// prepareShadow readies an unpublished snapshot for shadow verification
// and returns the reference backend the builder still has to construct
// for it ("" for none). A serving backend that is its own reference is
// attached at once. A linear reference first has the epoch's SO cache
// publish its dense table, once per epoch (a commit migrates it): the
// solve reads its normalization N(u,v) from the table, and mc queries
// then read every SO(u,v) from it too, instead of missing on the pairs
// the lazy cache has not seen. snap.sem is the post-kernel measure, so
// the reference scores against bit-identical semantics.
func (ix *Index) prepareShadow(snap *snapshot) string {
	if ix.refs == nil {
		return ""
	}
	opts := ix.opts
	name := opts.ShadowBackend
	if name == "" {
		name = defaultShadowBackend(snap.eng, snap.g.NumNodes(), opts.MaxLinearNodes)
	}
	switch {
	case name == "":
		ix.noRefOnce.Do(func() {
			limit := opts.MaxLinearNodes
			if limit == 0 {
				limit = engine.DefaultMaxLinearNodes
			}
			log.Printf("semsim: no shadow reference: the graph's %d nodes exceed the linear reference's %d-node cap; shadow samples are counted as skipped (ShadowBackend \"reduced\" builds one)", snap.g.NumNodes(), limit)
		})
		return ""
	case snap.eng.Name() == name && snap.eng.Caps().Exact:
		snap.setRef(snap.eng)
		return ""
	case name == "linear" && snap.cache != nil && !snap.cache.Dense():
		warmSOCache(snap.cache, opts, false)
	}
	return name
}

// buildRef constructs the named shadow reference over snap's structures
// (the builder's job); a cancelled ctx stops it at the next sweep.
func (ix *Index) buildRef(ctx context.Context, snap *snapshot, name string) (engine.Backend, error) {
	opts := ix.opts
	return engine.NewContext(ctx, name, engine.Config{
		Graph: snap.g, Sem: snap.sem, C: opts.C, Theta: opts.Theta,
		Estimator: snap.est, Walks: snap.walks, Meet: snap.meet, Cache: snap.cache,
		Workers:         opts.Workers,
		LinearMaxSweeps: opts.LinearMaxSweeps, LinearResidual: opts.LinearResidual,
		MaxLinearNodes: opts.MaxLinearNodes,
	})
}

// defaultShadowBackend picks the shadow reference when
// IndexOptions.ShadowBackend is empty: the serving backend itself when
// it is exact and prunes nothing, else "linear" up to its node cap
// (maxLinear, 0 for the engine default) and none ("") above it.
func defaultShadowBackend(eng engine.Backend, n, maxLinear int) string {
	if caps := eng.Caps(); caps.Exact && !caps.Prunes {
		return eng.Name()
	}
	if maxLinear == 0 {
		maxLinear = engine.DefaultMaxLinearNodes
	}
	if n > maxLinear {
		return ""
	}
	return "linear"
}

// refBuilder builds shadow references off the publish path, one at a
// time and newest epoch first: submitting an epoch stops the in-flight
// build of an older one at its next sweep, and an epoch still waiting
// when a newer one arrives is dropped — superseded epochs never get a
// reference.
type refBuilder struct {
	build   func(ctx context.Context, snap *snapshot, name string) (engine.Backend, error)
	metrics *Metrics

	// ctx is cancelled by close, which then waits for done.
	ctx  context.Context
	stop context.CancelFunc
	done chan struct{}
	// wake has room for one signal: a pending wake-up already covers
	// every later submit, since the builder always takes the newest job.
	wake chan struct{}

	mu     sync.Mutex
	next   refJob             // newest epoch waiting for its reference
	cancel context.CancelFunc // stops the in-flight build
}

type refJob struct {
	snap *snapshot
	name string
}

// newRefBuilder starts a builder whose goroutine runs until close.
func newRefBuilder(m *Metrics, build func(ctx context.Context, snap *snapshot, name string) (engine.Backend, error)) *refBuilder {
	ctx, stop := context.WithCancel(context.Background())
	b := &refBuilder{
		build: build, metrics: m,
		ctx: ctx, stop: stop,
		done: make(chan struct{}),
		wake: make(chan struct{}, 1),
	}
	go b.run()
	return b
}

// submit queues a newly published epoch's reference build.
func (b *refBuilder) submit(snap *snapshot, name string) {
	b.mu.Lock()
	b.next = refJob{snap: snap, name: name}
	if b.cancel != nil {
		b.cancel()
	}
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

func (b *refBuilder) run() {
	defer close(b.done)
	for {
		select {
		case <-b.ctx.Done():
			return
		case <-b.wake:
		}
		b.mu.Lock()
		job := b.next
		b.next = refJob{}
		ctx, cancel := context.WithCancel(b.ctx)
		b.cancel = cancel
		b.mu.Unlock()
		if job.snap != nil {
			b.runJob(ctx, job)
		}
		cancel()
	}
}

// runJob builds one epoch's reference and publishes it, unless a newer
// epoch or close cancelled the build first.
func (b *refBuilder) runJob(ctx context.Context, job refJob) {
	lat := b.metrics.Histogram("semsim_build_shadow_backend_seconds",
		"wall time of one completed background shadow reference-backend build", nil)
	t0 := lat.Start()
	ref, err := b.build(ctx, job.snap, job.name)
	switch {
	case ctx.Err() != nil:
	case err != nil:
		log.Printf("semsim: shadow reference %q for epoch %d: %v; its samples are counted as skipped", job.name, job.snap.epoch, err)
	default:
		lat.ObserveSince(t0)
		job.snap.setRef(ref)
	}
}

// close cancels the in-flight build and returns once the builder's
// goroutine has exited. Safe on nil.
func (b *refBuilder) close() {
	if b == nil {
		return
	}
	b.stop()
	<-b.done
}

// wrapKernel decides whether assemble wraps the measure in a
// semantic.Kernel, per IndexOptions.SemanticKernel.
func wrapKernel(sem Measure, mode string) bool {
	switch mode {
	case "off":
		return false
	case "on":
		_, already := sem.(*semantic.Kernel)
		return !already
	default: // "" / "auto": only the stock immutable measures
		switch sem.(type) {
		case semantic.Lin, semantic.Resnik, semantic.WuPalmer,
			semantic.JiangConrath, semantic.Path, semantic.Uniform:
			return true
		}
		return false
	}
}

// View is one pinned epoch of an Index: every read through it answers
// from the same immutable snapshot, however many commits publish
// meanwhile, so a caller that resolves names, scores and reports the
// epoch and backend for one request sees them agree by construction.
// The Index's methods of the same names are these reads on a View
// pinned at the call. A View is a small value: pinning one allocates
// nothing, and holding it keeps its epoch's structures alive until it
// is dropped.
type View struct {
	ix *Index // the shadow verifier QueryCost offers its scores to
	s  *snapshot
}

// Pin returns a View of the current epoch.
func (ix *Index) Pin() View { return View{ix: ix, s: ix.snap.Load()} }

// Backend reports the engine backend name the index delegates to.
func (ix *Index) Backend() string { return ix.Pin().Backend() }

// Backend reports the engine backend name the view's epoch answers with.
func (p View) Backend() string { return p.s.eng.Name() }

// Graph returns the graph of the current epoch. After a Commit the
// returned graph is the mutated one; graphs are immutable, so holding an
// older epoch's graph stays valid.
func (ix *Index) Graph() *Graph { return ix.Pin().Graph() }

// Graph returns the graph of the view's epoch.
func (p View) Graph() *Graph { return p.s.g }

// Sem returns the measure the current epoch scores with — the semantic
// kernel when one is attached, otherwise the raw measure.
func (ix *Index) Sem() Measure { return ix.Pin().Sem() }

// Sem returns the measure the view's epoch scores with.
func (p View) Sem() Measure { return p.s.sem }

// Epoch reports the current snapshot's epoch: 0 at build, +1 per
// committed mutation batch.
func (ix *Index) Epoch() uint64 { return ix.Pin().Epoch() }

// Epoch reports the view's epoch.
func (p View) Epoch() uint64 { return p.s.epoch }

// KernelMode reports the semantic kernel's storage mode — "dense" or
// "memo" — or "" when no kernel is attached (SemanticKernel "off", or
// "auto" with a custom measure).
func (ix *Index) KernelMode() string {
	s := ix.snap.Load()
	if s.kernel == nil {
		return ""
	}
	return s.kernel.Mode()
}

// Query estimates the SemSim score of (u,v) in [0,1] via the selected
// backend: QueryCost without cost accounting. Node IDs are
// bounds-checked: an id outside the graph scores 0 instead of indexing
// walk storage unchecked.
func (ix *Index) Query(u, v NodeID) float64 { return ix.QueryCost(u, v, nil) }

// offerShadow hands a served score to the shadow verifier. Only the
// sampled 1-in-ShadowRate offer looks at the epoch's reference: it is
// queued against that reference — so a commit racing the verification
// cannot compare the estimate against a different graph's truth — or
// counted as skipped while the epoch has none.
func (ix *Index) offerShadow(s *snapshot, u, v NodeID, score float64) {
	if !ix.shadow.Sample() {
		return
	}
	var scorer func(u, v NodeID) (float64, error)
	if ref := s.ref.Load(); ref != nil {
		scorer = ref.score
	}
	ix.shadow.Check(u, v, score, scorer)
}

// QueryCost estimates the SemSim score of (u,v) like Query, charging
// the work performed — walk steps scanned, SO-cache hits/misses, kernel
// probes, lazy walk-block decodes — to co (see Cost). A nil co disables
// the accounting; the score is the same either way. The exact-family
// backends answer from a solved matrix and leave co untouched.
func (ix *Index) QueryCost(u, v NodeID, co *Cost) float64 { return ix.Pin().QueryCost(u, v, co) }

// QueryCost is Index.QueryCost on the view's epoch. A shadow sample is
// verified against that epoch's reference.
func (p View) QueryCost(u, v NodeID, co *Cost) float64 {
	score, err := p.s.eng.Query(u, v, co)
	if err != nil {
		return 0
	}
	p.ix.offerShadow(p.s, u, v, score)
	return score
}

// ExplainQuery answers Query(u, v) together with the evidence behind
// the estimate: sample counts, per-step meeting histogram, empirical
// variance, the 95% confidence interval, theta-pruning accounting and
// cache/kernel provenance. Explanation.Score is bit-identical to what
// Query returns on the same index — explaining observes the estimator,
// it never perturbs it. An out-of-range node returns an error wrapping
// ErrNodeOutOfRange.
func (ix *Index) ExplainQuery(u, v NodeID) (*Explanation, error) { return ix.Pin().ExplainQuery(u, v) }

// ExplainQuery is Index.ExplainQuery on the view's epoch.
func (p View) ExplainQuery(u, v NodeID) (*Explanation, error) { return p.s.eng.Explain(u, v) }

// Close releases the index's background machinery: the shadow
// reference builder (an in-flight linear or exact build stops at its
// next sweep, and Close waits for the builder to exit), the shadow
// verifier's worker (draining any queued verifications) and, for an
// index opened with LazyWalks, the walk file handle shared by every
// epoch's walk index. An index built without any of these has nothing
// to release. Call Close after all in-flight queries and commits
// finish; a second Close is a no-op.
func (ix *Index) Close() {
	ix.refs.close()
	ix.refs = nil
	if ix.shadow != nil {
		ix.shadow.Close()
		ix.shadow = nil
	}
	ix.mu.Lock()
	retired := ix.retired
	ix.retired = nil
	ix.mu.Unlock()
	for _, w := range retired {
		w.Close()
	}
	ix.snap.Load().walks.Close()
}

// PlanStrategy reports the execution strategy the adaptive planner
// would route a TopK query to ("brute", "collision" or "linear"),
// without recording a planning decision — introspection for wide-event
// query logs. Returns "" when the index was built without AutoPlan (the
// static routing applies).
func (ix *Index) PlanStrategy(k int) string { return ix.Pin().PlanStrategy(k) }

// PlanStrategy is Index.PlanStrategy on the view's epoch: the strategy
// the view's TopKCost runs.
func (p View) PlanStrategy(k int) string {
	if p.s.planner == nil {
		return ""
	}
	return p.s.planner.Peek().String()
}

// TopK returns the k nodes most similar to u, descending. With
// IndexOptions.AutoPlan the execution strategy (collision-driven or
// brute scan, or the linear backend's solved rows) is chosen per query
// by the adaptive planner; otherwise the historical static routing applies — the
// collision path when a meet index exists (IndexOptions.MeetIndex), the
// brute scan otherwise. All strategies return the identical result set.
// An out-of-range u returns nil. TopK is TopKCost without cost
// accounting.
func (ix *Index) TopK(u NodeID, k int) []Scored { return ix.TopKCost(u, k, nil) }

// TopKCost answers TopK, charging the scan's work to co (see Cost). A
// nil co disables the accounting; the result is the same either way.
func (ix *Index) TopKCost(u NodeID, k int, co *Cost) []Scored { return ix.Pin().TopKCost(u, k, co) }

// TopKCost is Index.TopKCost on the view's epoch.
func (p View) TopKCost(u NodeID, k int, co *Cost) []Scored {
	out, err := p.s.eng.TopK(u, k, co)
	if err != nil {
		return nil
	}
	return out
}

// SingleSource estimates sim(u, v) for every v with a nonzero estimate
// (ascending node order, zeros omitted). The default mc backend requires
// IndexOptions.MeetIndex; the reduced and exact backends enumerate
// natively.
func (ix *Index) SingleSource(u NodeID) ([]Scored, error) {
	s := ix.snap.Load()
	if !s.eng.Caps().HasSingleSource {
		return nil, errNoMeetIndex
	}
	return s.eng.SingleSource(u)
}

// TopKSemBounded is TopK forced onto the sem-bounded strategy of Prop
// 2.5 (sim <= sem): candidates are scanned in descending semantic order
// with early termination. Prop 2.5 bounds the exact score, not the
// Monte-Carlo estimate, which can exceed sem(u,v); such a candidate can
// be cut, so the list can differ from TopK's.
//
// Deprecated: strategy choice belongs to the engine — set
// IndexOptions.AutoPlan and call TopK; the planner never picks the
// sem-bounded scan. This shim remains for callers that want to force
// the strategy explicitly.
func (ix *Index) TopKSemBounded(u NodeID, k int) []Scored {
	if sr, ok := ix.snap.Load().eng.(engine.StrategyRunner); ok {
		out, err := sr.TopKWithStrategy(u, k, engine.StrategySemBounded)
		if err != nil {
			return nil
		}
		return out
	}
	return ix.TopK(u, k)
}

// BatchQuery evaluates many pairs concurrently over the selected
// backend. Every pair is bounds-checked against the graph before any
// scoring starts; a malformed pair fails the whole batch with an error
// naming it. On the mc backend all workers share the index's estimator
// and SO cache, so batches warm the cache for subsequent queries.
// workers <= 0 uses the configured pool size (IndexOptions.Workers,
// defaulting to GOMAXPROCS). Results align positionally with pairs and
// match a serial Query loop exactly.
func (ix *Index) BatchQuery(pairs [][2]NodeID, workers int) ([]float64, error) {
	return ix.snap.Load().eng.QueryBatch(pairs, workers)
}

// SimRankQuery estimates the plain SimRank score on the same walk index
// (the Fogaras–Rácz estimator) — useful for side-by-side comparisons.
func (ix *Index) SimRankQuery(u, v NodeID) float64 { return ix.Pin().SimRankQuery(u, v) }

// SimRankQuery is Index.SimRankQuery on the view's epoch.
func (p View) SimRankQuery(u, v NodeID) float64 { return p.s.srmc.Query(u, v) }

// CacheSummary aggregates the SLING cache's hit/miss counters, derived
// hit ratio and entry count in one coherent pass (the zero value when
// the cache is disabled). The counters are atomic, so the snapshot is
// safe to take while queries are in flight.
func (ix *Index) CacheSummary() CacheSummary {
	s := ix.snap.Load()
	if s.cache == nil {
		return CacheSummary{}
	}
	return s.cache.Summary()
}

// Snapshot copies every metric the index has recorded — counters,
// gauges (including the live SLING-cache statistics) and histogram
// snapshots with p50/p95/p99 — as one JSON-marshalable value. It is
// safe to call while queries are in flight. When the index was built
// without IndexOptions.Metrics the snapshot is empty but non-nil.
func (ix *Index) Snapshot() MetricsSnapshot {
	return ix.metrics.Snapshot()
}

// Metrics returns the registry the index was built with, or nil when
// observability is disabled — hand it to an HTTP handler for /metrics
// text exposition (Metrics.WriteText) or publish it via expvar.
func (ix *Index) Metrics() *Metrics {
	return ix.metrics
}

// SaveWalks persists the precomputed walk index in the current default
// on-disk format (v3, compressed blocks); LoadIndex and OpenIndexFile
// restore it without resampling (the dominant preprocessing cost).
func (ix *Index) SaveWalks(w io.Writer) error {
	_, err := ix.snap.Load().walks.WriteTo(w)
	return err
}

// WalkFormats lists the walk-file format names SaveWalksFormat and
// ConvertWalks accept.
func WalkFormats() []string { return []string{"v2", "v3"} }

// walkFormatVersion maps a CLI-facing format name to the walk package's
// version number. "" picks the current default.
func walkFormatVersion(format string) (int, error) {
	switch format {
	case "v2":
		return walk.FormatV2, nil
	case "", "v3":
		return walk.FormatV3, nil
	}
	return 0, fmt.Errorf("semsim: unknown walk format %q (have: v2, v3)", format)
}

// SaveWalksFormat persists the walk index in an explicit format: "v2"
// is the legacy flat layout (readable by older builds), "v3" (or "")
// the compressed block layout — typically 2.5-4x smaller and the only
// format LazyWalks can open.
func (ix *Index) SaveWalksFormat(w io.Writer, format string) error {
	v, err := walkFormatVersion(format)
	if err != nil {
		return err
	}
	_, err = ix.snap.Load().walks.WriteToFormat(w, v)
	return err
}

// ConvertWalks re-encodes a saved walk index between on-disk formats
// ("v2" flat, "v3" compressed blocks) without rebuilding the walks. The
// graph the walks were sampled for is required: v3 compresses steps
// against its in-neighbor lists, and the source file's fingerprint is
// verified against it. Returns the bytes written.
func ConvertWalks(r io.Reader, g *Graph, w io.Writer, format string) (int64, error) {
	v, err := walkFormatVersion(format)
	if err != nil {
		return 0, err
	}
	walks, err := walk.Load(r, g)
	if err != nil {
		return 0, err
	}
	return walks.WriteToFormat(w, v)
}

// WalkCacheResidentBytes reports the decoded bytes currently resident
// in the lazy walk-block cache (0 for a resident index) — the live
// value behind the semsim_walk_cache_resident_bytes gauge.
func (ix *Index) WalkCacheResidentBytes() int64 {
	return ix.snap.Load().walks.CacheResidentBytes()
}

// LazyWalks reports whether the current epoch serves walks lazily from
// a v3 walk file (OpenIndexFile with IndexOptions.LazyWalks).
func (ix *Index) LazyWalks() bool {
	return ix.snap.Load().walks.Lazy()
}

// DecodeErrors reports how many lazy walk-block decodes have failed
// since open (0 for a resident index). Nonzero means some queries were
// answered from degraded (stopped) walks for the affected nodes.
func (ix *Index) DecodeErrors() int64 {
	return ix.snap.Load().walks.DecodeErrors()
}

// LoadIndex rebuilds an Index from walks previously saved with SaveWalks,
// for the same graph. All other options behave as in BuildIndex (the
// walk-sampling options are taken from the stored index).
func LoadIndex(r io.Reader, g *Graph, sem Measure, opts IndexOptions) (*Index, error) {
	if opts.C == 0 {
		opts.C = 0.6
	}
	buildLat := opts.Metrics.Histogram("semsim_build_seconds",
		"end-to-end BuildIndex wall time", nil)
	t0 := buildLat.Start()
	sp := opts.Trace.Start("load-walks")
	walks, err := walk.Load(r, g)
	sp.End()
	if err != nil {
		return nil, err
	}
	idx, err := newIndex(g, sem, walks, opts)
	if err != nil {
		return nil, err
	}
	buildLat.ObserveSince(t0)
	return idx, nil
}

// OpenIndexFile rebuilds an Index from a walk file previously saved
// with SaveWalks, choosing the residency mode from opts: with LazyWalks
// the file's block directory is mapped and walk blocks decode on demand
// into a cache capped at WalkCacheBytes — indexes larger than RAM serve
// — otherwise the file is fully loaded as LoadIndex would. Lazy opening
// requires the v3 format (`semsim convert` upgrades older files). Call
// Index.Close when done: it releases the walk file handle.
func OpenIndexFile(path string, g *Graph, sem Measure, opts IndexOptions) (*Index, error) {
	if !opts.LazyWalks {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return LoadIndex(f, g, sem, opts)
	}
	if opts.C == 0 {
		opts.C = 0.6
	}
	buildLat := opts.Metrics.Histogram("semsim_build_seconds",
		"end-to-end BuildIndex wall time", nil)
	t0 := buildLat.Start()
	sp := opts.Trace.Start("open-walks-lazy")
	walks, err := walk.OpenLazyFile(path, g, walk.LazyOptions{
		CacheBytes: opts.WalkCacheBytes,
		Metrics:    opts.Metrics,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	idx, err := newIndex(g, sem, walks, opts)
	if err != nil {
		walks.Close()
		return nil, err
	}
	buildLat.ObserveSince(t0)
	return idx, nil
}

// MemoryBytes reports the walk-index storage plus the SLING cache and
// meet index, the quantities of the paper's preprocessing report. A
// non-mc backend additionally reports its own prepared structure (the
// reduced pair graph, the exact score matrix).
func (ix *Index) MemoryBytes() int64 {
	s := ix.snap.Load()
	m := s.walks.MemoryBytes()
	if s.cache != nil {
		m += s.cache.MemoryBytes()
	}
	if s.kernel != nil {
		m += s.kernel.MemoryBytes()
	}
	if s.meet != nil {
		m += s.meet.MemoryBytes()
	}
	if s.eng != nil && s.eng.Name() != "mc" {
		m += s.eng.MemoryBytes()
	}
	return m
}

// ReducedOptions configure the G^2_theta reduction of Definition 3.4.
type ReducedOptions = pairgraph.ReduceOptions

// ReducedGraph is the materialized G^2_theta: only node pairs with
// sem > theta, with omitted walks folded into bypass edges and a drain.
// Scores of retained pairs equal full-G^2 SemSim scores (Theorem 3.5).
type ReducedGraph struct {
	red *pairgraph.Reduced
}

// BuildReduced materializes G^2_theta and solves it to its fixpoint.
func BuildReduced(g *Graph, sem Measure, opts ReducedOptions) (*ReducedGraph, error) {
	red, err := pairgraph.Reduce(g, sem, opts)
	if err != nil {
		return nil, err
	}
	if err := red.Solve(100, 1e-10); err != nil {
		return nil, err
	}
	return &ReducedGraph{red: red}, nil
}

// Score returns s_theta(u,v): the exact SemSim score for retained pairs,
// 0 for dropped ones.
func (r *ReducedGraph) Score(u, v NodeID) float64 { return r.red.Score(u, v) }

// Contains reports whether (u,v) was retained (sem > theta).
func (r *ReducedGraph) Contains(u, v NodeID) bool { return r.red.Contains(u, v) }

// NumPairs reports the retained canonical pair count.
func (r *ReducedGraph) NumPairs() int { return r.red.NumPairs() }

// ScoredPair is one similarity-join result.
type ScoredPair = pairgraph.ScoredPair

// SimilarityJoin finds every distinct pair with SemSim score >= minScore,
// descending: Proposition 2.5 (sim <= sem) makes G^2_theta with
// theta < minScore a complete index for the join. opts.Theta defaults to
// minScore/2 when unset.
func SimilarityJoin(g *Graph, sem Measure, minScore float64, opts ReducedOptions) ([]ScoredPair, error) {
	if opts.Theta == 0 {
		opts.Theta = minScore / 2
	}
	red, err := BuildReduced(g, sem, opts)
	if err != nil {
		return nil, err
	}
	return red.red.PairsAbove(minScore)
}
