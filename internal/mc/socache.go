package mc

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"semsim/internal/core/pairkey"
	"semsim/internal/hin"
	"semsim/internal/pairgraph"
	"semsim/internal/semantic"
)

// SOCache memoizes the O(d^2) SARW normalization SO(a,b) for node pairs
// whose semantic similarity reaches a cutoff, following the paper's SLING
// adaptation ("storing probabilities only for node-pairs with semantic
// similarity scores >= 0.1", Section 5.2). Pairs below the cutoff are
// recomputed on every query, bounding memory to the semantically close
// pairs that coupled walks actually traverse.
//
// The cache fills lazily and is safe for concurrent use: entries are
// partitioned across soCacheShards independently locked shards (striped
// RW locks), so concurrent queriers touching different pairs proceed
// without contention, and hit/miss statistics are kept in per-shard
// atomic counters. SO is deterministic, so a racing double-compute of
// the same pair stores the same value — last write wins harmlessly.
//
// After an eager warm (Precompute), EnableDense can additionally publish
// the stored values as a flat triangular float64 table: probes then skip
// the stripe lock and map lookup entirely — one array read — which is
// what puts a warmed SemSim query within reach of plain SimRank.
type SOCache struct {
	g      *hin.Graph
	sem    semantic.Measure
	cutoff float64
	dense  atomic.Pointer[soDense]
	shards [soCacheShards]soShard
}

// soShard is one lock stripe of the cache. Counters are atomic so Stats
// stays exact even while queriers are mutating the shard maps.
type soShard struct {
	mu     sync.RWMutex
	vals   map[uint64]float64
	hits   atomic.Int64
	misses atomic.Int64
}

// soDense is the immutable read-optimized form of a fully warmed cache:
// a triangular matrix holding SO for every pair. The SLING cutoff does
// not apply here — the triangular table allocates a cell per pair either
// way, so leaving below-cutoff cells empty would save nothing while
// forcing an O(d^2) recompute on every walk step that crosses one
// (coupled walks mostly traverse semantically distant pairs). Memory is
// bounded by the EnableDense budget instead of the cutoff. Published via
// atomic pointer, so queries racing the warm see either the map or the
// complete table.
type soDense struct {
	vals   []float64
	rowOff []int64
	n      int
}

// soCacheShards is the number of lock stripes. 64 comfortably exceeds
// the worker counts the query paths spawn (GOMAXPROCS-sized pools),
// keeping the probability of two workers colliding on a stripe low.
const soCacheShards = 64

// soShardBits is log2(soCacheShards), the stripe-hash width.
const soShardBits = 6

// DefaultSOCutoff is the paper's SLING storage threshold.
const DefaultSOCutoff = 0.1

// DefaultSODenseBudget caps the dense SO table at 64 MiB (~4000 nodes)
// unless the caller raises it.
const DefaultSODenseBudget int64 = 64 << 20

// NewSOCache creates an empty cache. cutoff <= 0 uses DefaultSOCutoff.
func NewSOCache(g *hin.Graph, sem semantic.Measure, cutoff float64) *SOCache {
	if cutoff <= 0 {
		cutoff = DefaultSOCutoff
	}
	c := &SOCache{g: g, sem: sem, cutoff: cutoff}
	for i := range c.shards {
		c.shards[i].vals = make(map[uint64]float64)
	}
	return c
}

func (c *SOCache) shardOf(k uint64) *soShard {
	return &c.shards[pairkey.Shard(k, soShardBits)]
}

// SO returns the normalization for (a,b), caching it when the pair's
// semantic similarity reaches the cutoff. The pair is canonicalized so
// results are bit-identical regardless of argument order.
func (c *SOCache) SO(a, b hin.NodeID) float64 {
	if a > b {
		a, b = b, a
	}
	k := pairkey.Key(a, b)
	if d := c.dense.Load(); d != nil {
		c.shardOf(k).hits.Add(1)
		return d.vals[d.rowOff[a]+int64(b)]
	}
	sh := c.shardOf(k)
	sh.mu.RLock()
	v, ok := sh.vals[k]
	sh.mu.RUnlock()
	if ok {
		sh.hits.Add(1)
		return v
	}
	sh.misses.Add(1)
	v = pairgraph.SO(c.g, c.sem, a, b)
	if c.sem.Sim(a, b) >= c.cutoff {
		sh.mu.Lock()
		sh.vals[k] = v
		sh.mu.Unlock()
	}
	return v
}

// Probe is SO reporting whether the value came from cache storage (the
// dense table or a stripe-map entry) rather than a fresh O(d^2)
// recomputation. Side effects — the per-shard hit/miss counters and the
// store-on-miss of above-cutoff pairs — are identical to SO, so costed
// and uncosted query paths leave the cache in the same state and return
// bit-identical values.
func (c *SOCache) Probe(a, b hin.NodeID) (float64, bool) {
	if a > b {
		a, b = b, a
	}
	k := pairkey.Key(a, b)
	if d := c.dense.Load(); d != nil {
		c.shardOf(k).hits.Add(1)
		return d.vals[d.rowOff[a]+int64(b)], true
	}
	sh := c.shardOf(k)
	sh.mu.RLock()
	v, ok := sh.vals[k]
	sh.mu.RUnlock()
	if ok {
		sh.hits.Add(1)
		return v, true
	}
	sh.misses.Add(1)
	v = pairgraph.SO(c.g, c.sem, a, b)
	if c.sem.Sim(a, b) >= c.cutoff {
		sh.mu.Lock()
		sh.vals[k] = v
		sh.mu.Unlock()
	}
	return v, false
}

// Precompute eagerly fills the cache for every pair with sem >= cutoff —
// the offline SLING index build — using all available CPUs. It is O(n^2)
// semantic probes plus O(d^2) per stored pair. It may not run
// concurrently with itself but may overlap live SO queries.
func (c *SOCache) Precompute() { c.PrecomputeParallel(0) }

// PrecomputeParallel is Precompute with an explicit worker count
// (<= 0 uses GOMAXPROCS). The stored values are identical to a serial
// warm: each pair's SO is deterministic, and which pairs are stored
// depends only on the cutoff, not on scheduling.
func (c *SOCache) PrecomputeParallel(workers int) {
	n := c.g.NumNodes()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for u := 0; u < n; u++ {
			c.precomputeRow(u)
		}
		return
	}
	// Dynamic row assignment: row u costs O(n-u), so contiguous chunks
	// would leave the high-row worker idle half the time.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := int(next.Add(1)) - 1
				if u >= n {
					return
				}
				c.precomputeRow(u)
			}
		}()
	}
	wg.Wait()
}

// precomputeRow warms every stored pair (u, v>=u).
func (c *SOCache) precomputeRow(u int) {
	n := c.g.NumNodes()
	for v := u; v < n; v++ {
		a, b := hin.NodeID(u), hin.NodeID(v)
		if c.sem.Sim(a, b) >= c.cutoff {
			k := pairkey.Key(a, b)
			so := pairgraph.SO(c.g, c.sem, a, b)
			sh := c.shardOf(k)
			sh.mu.Lock()
			sh.vals[k] = so
			sh.mu.Unlock()
		}
	}
}

// EnableDense materializes SO for every pair as a flat triangular table
// when n*(n+1)/2 float64 cells fit the budget (<= 0 uses
// DefaultSODenseBudget), and reports whether it did. It subsumes
// Precompute: values are bit-identical to the map-mode warm and to the
// lazy recomputes (same deterministic pairgraph.SO on the same canonical
// pair) — the table merely extends storage to the below-cutoff pairs the
// striped maps would recompute on every probe. Call it at build time:
// once published, probes never touch the stripe maps again.
func (c *SOCache) EnableDense(budget int64, workers int) bool {
	n := c.g.NumNodes()
	cells := int64(n) * int64(n+1) / 2
	if budget <= 0 {
		budget = DefaultSODenseBudget
	}
	if cells*8 > budget {
		return false
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	d := &soDense{vals: make([]float64, cells), rowOff: make([]int64, n), n: n}
	off := int64(0)
	for a := 0; a < n; a++ {
		d.rowOff[a] = off - int64(a)
		off += int64(n - a)
	}
	fillRow := func(u int) {
		row := d.vals[d.rowOff[u]:]
		for v := u; v < n; v++ {
			row[v] = pairgraph.SO(c.g, c.sem, hin.NodeID(u), hin.NodeID(v))
		}
	}
	if workers <= 1 {
		for u := 0; u < n; u++ {
			fillRow(u)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					u := int(next.Add(1)) - 1
					if u >= n {
						return
					}
					fillRow(u)
				}
			}()
		}
		wg.Wait()
	}
	c.dense.Store(d)
	return true
}

// Dense reports whether the flat-table read path is active.
func (c *SOCache) Dense() bool { return c.dense.Load() != nil }

// SOTable is a read-only view of one published dense SO table, for bulk
// readers that need every SO(u,v) of an epoch: the linear backend takes
// its normalization N(u,v) from it. Reads through it touch no hit/miss
// counter — they are set-up work, not query traffic.
type SOTable struct{ d *soDense }

// At returns SO(a,b), in either argument order.
func (t SOTable) At(a, b hin.NodeID) float64 {
	if a > b {
		a, b = b, a
	}
	return t.d.vals[t.d.rowOff[a]+int64(b)]
}

// Table returns the published dense table when the cache normalizes
// exactly g under sem. ok is false on a nil cache, before EnableDense,
// and for a cache built over another graph or measure, whose values
// would be the wrong normalization.
func (c *SOCache) Table(g *hin.Graph, sem semantic.Measure) (SOTable, bool) {
	if c == nil || c.g != g || !sameMeasure(c.sem, sem) {
		return SOTable{}, false
	}
	d := c.dense.Load()
	if d == nil {
		return SOTable{}, false
	}
	return SOTable{d}, true
}

// sameMeasure reports whether a and b are the same measure value. A
// measure of uncomparable dynamic type (a semantic.Func holds a func)
// never matches, instead of panicking in ==.
func sameMeasure(a, b semantic.Measure) bool {
	t := reflect.TypeOf(a)
	return t != nil && t == reflect.TypeOf(b) && t.Comparable() && a == b
}

// Len reports how many pairs are stored (every pair, in dense mode).
func (c *SOCache) Len() int {
	if d := c.dense.Load(); d != nil {
		return len(d.vals)
	}
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		total += len(sh.vals)
		sh.mu.RUnlock()
	}
	return total
}

// MemoryBytes estimates cache storage: the full triangular table in
// dense mode, else 16 bytes per map entry plus map overhead approximated
// at 2x.
func (c *SOCache) MemoryBytes() int64 {
	if d := c.dense.Load(); d != nil {
		return int64(len(d.vals))*8 + int64(len(d.rowOff))*8
	}
	return int64(c.Len()) * 32
}

// CacheSummary is a coherent one-pass aggregation of the cache's
// counters: hits, misses, the derived hit ratio and the stored entry
// count. HitRatio is hits/(hits+misses), 0 before any probe — consumers
// should report this field rather than re-deriving the ratio from Hits
// and Misses read at different times.
type CacheSummary struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
	Entries  int     `json:"entries"`
}

// Summary aggregates every shard once and returns the counters together
// with the derived hit ratio. The counters are atomic, so the snapshot
// is safe while queries are in flight; hits and misses are summed in the
// same pass, keeping the ratio internally consistent.
func (c *SOCache) Summary() CacheSummary {
	var s CacheSummary
	for i := range c.shards {
		sh := &c.shards[i]
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		sh.mu.RLock()
		s.Entries += len(sh.vals)
		sh.mu.RUnlock()
	}
	if d := c.dense.Load(); d != nil {
		s.Entries = len(d.vals)
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRatio = float64(s.Hits) / float64(total)
	}
	return s
}

// Stats reports hit/miss counters aggregated over all shards.
//
// Deprecated: use Summary, which aggregates once and carries the derived
// hit ratio, instead of dividing these counters yourself (two separate
// Stats reads can interleave with live traffic and skew the ratio).
func (c *SOCache) Stats() (hits, misses int64) {
	s := c.Summary()
	return s.Hits, s.Misses
}

// ShardStats reports per-stripe entry counts and hit/miss counters, for
// diagnosing skew in the stripe hash under production workloads.
type ShardStats struct {
	Entries int
	Hits    int64
	Misses  int64
}

// PerShardStats snapshots every stripe.
func (c *SOCache) PerShardStats() []ShardStats {
	out := make([]ShardStats, soCacheShards)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		out[i].Entries = len(sh.vals)
		sh.mu.RUnlock()
		out[i].Hits = sh.hits.Load()
		out[i].Misses = sh.misses.Load()
	}
	return out
}
