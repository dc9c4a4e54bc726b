package mc

import (
	"semsim/internal/obs"
)

// instruments bundles the estimator's metric handles. When the engine
// runs without a registry every field is nil and each instrument method
// is a no-op (package obs's nil contract), so the hot path pays one
// predictable branch per record point and allocates nothing.
type instruments struct {
	// Single-pair query path (every entry point that evaluates a pair).
	queries  *obs.Counter
	queryLat *obs.Histogram
	// Theta-pruning effectiveness (Section 4.4): queries short-circuited
	// because sem <= theta, walk contributions capped mid-product, and
	// the total coupled walks scored (the denominator for skip rates).
	semSkips     *obs.Counter
	walkCaps     *obs.Counter
	walksCoupled *obs.Counter
	// Top-k search (brute, meet-index and sem-bounded variants).
	topks       *obs.Counter
	topkLat     *obs.Histogram
	topkCands   *obs.Histogram
	semBoundCut *obs.Counter
	// Single-source enumeration over the meet index.
	singles     *obs.Counter
	singleLat   *obs.Histogram
	singleCands *obs.Histogram
	// Batched pair evaluation.
	batches    *obs.Counter
	batchLat   *obs.Histogram
	batchPairs *obs.Counter
	// Scoring pool: helpers currently scoring + total spawned. The
	// calling goroutine scores alongside its helpers and is counted in
	// neither.
	poolActive *obs.Gauge
	poolTasks  *obs.Counter
	// Explain path (estimate-quality evidence queries).
	explains   *obs.Counter
	explainLat *obs.Histogram
}

// newInstruments registers the estimator's metric set on r. A nil r
// yields all-nil handles (metrics disabled) because the registry's
// getters are themselves nil-safe.
func newInstruments(r *obs.Registry) instruments {
	return instruments{
		queries:  r.Counter("semsim_queries_total", "single-pair SemSim evaluations (all entry points)"),
		queryLat: r.Histogram("semsim_query_seconds", "single-pair query latency", nil),

		semSkips:     r.Counter("semsim_theta_sem_skips_total", "queries answered 0 because sem(u,v) <= theta (Algorithm 1 lines 2-3)"),
		walkCaps:     r.Counter("semsim_theta_walk_caps_total", "coupled-walk contributions capped once the partial product dropped to <= theta (Definition 4.5)"),
		walksCoupled: r.Counter("semsim_walks_coupled_total", "coupled walks scored (meetings found within t steps)"),

		topks:       r.Counter("semsim_topk_total", "top-k searches (brute, meet-index and sem-bounded)"),
		topkLat:     r.Histogram("semsim_topk_seconds", "top-k search latency", nil),
		topkCands:   r.Histogram("semsim_topk_candidates", "nonzero-scoring candidates offered to the accumulator per top-k search", obs.CountBuckets),
		semBoundCut: r.Counter("semsim_topk_sembound_cutoffs_total", "sem-bounded top-k scans terminated early by Prop 2.5"),

		singles:     r.Counter("semsim_singlesource_total", "single-source enumerations"),
		singleLat:   r.Histogram("semsim_singlesource_seconds", "single-source enumeration latency", nil),
		singleCands: r.Histogram("semsim_singlesource_candidates", "colliding candidate groups per single-source enumeration", obs.CountBuckets),

		batches:    r.Counter("semsim_batch_total", "batch evaluations"),
		batchLat:   r.Histogram("semsim_batch_seconds", "whole-batch latency", nil),
		batchPairs: r.Counter("semsim_batch_pairs_total", "pairs evaluated via batches"),

		poolActive: r.Gauge("semsim_pool_active_workers", "scoring-pool helper goroutines currently running (the calling goroutine scores too and is not counted)"),
		poolTasks:  r.Counter("semsim_pool_workers_spawned_total", "scoring-pool helper goroutines spawned (a task of p participants spawns p-1)"),

		explains:   r.Counter("semsim_explain_total", "explain-mode queries (per-query estimate-quality evidence)"),
		explainLat: r.Histogram("semsim_explain_seconds", "explain-mode query latency", nil),
	}
}

// registerCacheMetrics exports the SO cache's own counters as lazy
// gauges: values are read from the cache's atomic per-shard counters at
// scrape time, so the query path pays nothing extra for them.
func registerCacheMetrics(r *obs.Registry, c *SOCache) {
	if r == nil || c == nil {
		return
	}
	r.GaugeFunc("semsim_cache_hits_total", "SLING SO-cache hits (all shards)", func() float64 {
		return float64(c.Summary().Hits)
	})
	r.GaugeFunc("semsim_cache_misses_total", "SLING SO-cache misses (all shards)", func() float64 {
		return float64(c.Summary().Misses)
	})
	r.GaugeFunc("semsim_cache_hit_ratio", "SLING SO-cache hit ratio in [0,1] (0 before any probe)", func() float64 {
		return c.Summary().HitRatio
	})
	r.GaugeFunc("semsim_cache_entries", "SO pairs stored in the SLING cache", func() float64 {
		return float64(c.Summary().Entries)
	})
}
