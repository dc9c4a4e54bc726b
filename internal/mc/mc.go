// Package mc implements the paper's Section 4: Monte-Carlo approximation of
// SemSim. The centerpiece is the importance-sampling estimator of
// Algorithm 1, which reuses walks drawn from the *uniform* proposal
// distribution Q (the SimRank walk index of package walk) to estimate the
// expectation under the semantic-aware distribution P:
//
//	sim(u,v) = sem(u,v) * E_Q[ (P(w)/Q(w)) * c^tau ]
//
// avoiding the O(n^2) sample-set blowup of the naive per-pair sampler
// (Section 4.2, provided here as NaiveSampler for the comparison
// experiments). The theta-pruning of Section 4.4 caps each coupled walk's
// contribution once it falls below theta, trading a bounded one-sided
// additive error (Prop 4.6) for running times on par with SimRank. A
// SLING-style cache (Section 5.2) memoizes the O(d^2) per-step
// normalization SO(a,b) for semantically close pairs.
//
// # Concurrency
//
// Every query-path type in this package is safe for concurrent use: an
// Estimator holds no per-query state (the walk index, graph and semantic
// measure are read-only, and the attached SOCache is sharded and
// internally locked), so one Estimator can be shared by any number of
// goroutines. TopK and SingleSource additionally fan their candidate
// scoring out across an internal worker pool (Options.Workers), and
// QueryBatch evaluates many pairs concurrently on the shared cache.
package mc

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"semsim/internal/hin"
	"semsim/internal/obs"
	"semsim/internal/pairgraph"
	"semsim/internal/rank"
	"semsim/internal/semantic"
	"semsim/internal/walk"
)

// Options configure an Estimator.
type Options struct {
	// C is the decay factor in (0,1).
	C float64
	// Theta enables pruning when > 0 (the paper uses 0.05): pairs with
	// sem <= Theta score 0 and coupled-walk contributions are capped
	// once they drop to <= Theta. Lemma 4.7 advises Theta <= 1-C.
	Theta float64
	// Cache, when non-nil, memoizes SO normalizations (SLING-style).
	// The cache is sharded and safe to share across estimators.
	Cache *SOCache
	// Workers sizes the scoring pool used by TopK, SingleSource and
	// QueryBatch. 0 uses runtime.GOMAXPROCS(0); 1 forces serial scoring.
	Workers int
	// Metrics, when non-nil, receives the estimator's counters,
	// latency histograms and pruning statistics (see internal/obs).
	// When nil — the default — every instrument is a nil no-op and the
	// query path adds zero allocations and no atomic traffic.
	Metrics *obs.Registry
}

// Estimator answers single-pair SemSim queries from a shared walk index.
// It is stateless per query and safe for concurrent use by multiple
// goroutines, including when a Cache is attached.
type Estimator struct {
	ix      *walk.Index
	g       *hin.Graph
	sem     semantic.Measure
	c       float64
	theta   float64
	cache   *SOCache
	workers int
	m       instruments
}

// minCandidatesPerWorker is the smallest candidate-chunk worth handing a
// goroutine; below it the spawn overhead dominates the scoring work.
const minCandidatesPerWorker = 32

// New builds an Estimator over a walk index.
func New(ix *walk.Index, sem semantic.Measure, opts Options) (*Estimator, error) {
	if opts.C <= 0 || opts.C >= 1 {
		return nil, fmt.Errorf("mc: decay factor c = %v outside (0,1)", opts.C)
	}
	if opts.Theta < 0 || opts.Theta >= 1 {
		return nil, fmt.Errorf("mc: theta = %v outside [0,1)", opts.Theta)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	registerCacheMetrics(opts.Metrics, opts.Cache)
	return &Estimator{
		ix:      ix,
		g:       ix.Graph(),
		sem:     sem,
		c:       opts.C,
		theta:   opts.Theta,
		cache:   opts.Cache,
		workers: workers,
		m:       newInstruments(opts.Metrics),
	}, nil
}

// Cache returns the attached SO cache, or nil.
func (e *Estimator) Cache() *SOCache { return e.cache }

// scoringWorkers sizes the pool for a task of n independent units,
// capping at the configured pool size and at one worker per
// minCandidatesPerWorker units so tiny tasks stay serial.
func (e *Estimator) scoringWorkers(n int) int {
	w := e.workers
	if byWork := n / minCandidatesPerWorker; byWork < w {
		w = byWork
	}
	if w < 1 {
		w = 1
	}
	return w
}

// so returns the SARW normalization for the pair (a,b), via the cache when
// one is attached. The pair is canonicalized so that cached and direct
// computations sum in the same order (bit-identical results).
func (e *Estimator) so(a, b hin.NodeID) float64 {
	if a > b {
		a, b = b, a
	}
	if e.cache != nil {
		return e.cache.SO(a, b)
	}
	return pairgraph.SO(e.g, e.sem, a, b)
}

// soProbe is so reporting whether the normalization came from cache
// storage, for cost accounting. Without a cache every probe is a full
// recomputation, i.e. a miss.
func (e *Estimator) soProbe(a, b hin.NodeID) (float64, bool) {
	if a > b {
		a, b = b, a
	}
	if e.cache != nil {
		return e.cache.Probe(a, b)
	}
	return pairgraph.SO(e.g, e.sem, a, b), false
}

// Query estimates sim(u,v) with Algorithm 1. The returned score is clamped
// into [0,1] (cf. Lemma 4.7). When metrics are enabled the call is timed
// into semsim_query_seconds and counted in semsim_queries_total; the
// pruning counters fire inside the scoring loop either way.
func (e *Estimator) Query(u, v hin.NodeID) float64 {
	return e.QueryCost(u, v, nil)
}

// QueryCost is Query additionally charging the work performed — walk
// steps, SO-cache traffic, kernel probes, lazy block decodes — to co. A
// nil co disables accounting; scores are bit-identical either way (the
// costed cache probes have the same side effects and return the same
// values as the uncosted ones).
func (e *Estimator) QueryCost(u, v hin.NodeID, co *obs.Cost) float64 {
	t0 := e.m.queryLat.Start()
	score := e.query(u, v, co)
	e.m.queryLat.ObserveSince(t0)
	e.m.queries.Inc()
	return score
}

// query is the uninstrumented single-pair evaluation shared by Query and
// the top-k scan loops (which report aggregate candidate counts instead
// of per-candidate timings). Pruning statistics are accumulated locally
// and flushed with one atomic add per call so heavy concurrent scans
// don't serialize on the shared counters. co, when non-nil, receives the
// pair's cost accounting (plain field bumps, never shared across
// goroutines — parallel scans give each worker a local Cost and merge).
func (e *Estimator) query(u, v hin.NodeID, co *obs.Cost) float64 {
	if co != nil {
		co.Pairs++
		co.KernelProbes++ // the sem(u,v) gate probe below
	}
	if u == v {
		return 1
	}
	semUV := e.sem.Sim(u, v)
	if e.theta > 0 && semUV <= e.theta {
		e.m.semSkips.Inc()
		if co != nil {
			co.SemSkips++
		}
		return 0 // lines 2-3 of Algorithm 1
	}
	nw := e.ix.NumWalks()
	// One view fetch per node pins both walk blocks for the whole query:
	// in resident mode this compiles to the same slab indexing as
	// before; in lazy mode it is two cache probes instead of 2*n_w.
	vu, vv := e.ix.ViewCost(u, co), e.ix.ViewCost(v, co)
	var total float64
	var coupled, capped int64
	for i := 0; i < nw; i++ {
		tau, ok := walk.MeetViews(vu, vv, i)
		if !ok {
			continue
		}
		coupled++
		s, hitCap := e.walkScore(vu, vv, i, tau, co)
		if hitCap {
			capped++
		}
		total += s
	}
	e.m.walksCoupled.Add(coupled)
	e.m.walkCaps.Add(capped)
	if co != nil {
		co.WalkCaps += capped
	}
	score := semUV * total / float64(nw)
	if score < 0 {
		return 0
	}
	if score > 1 {
		return 1
	}
	return score
}

// QueryBatch evaluates many single-pair queries on this estimator,
// fanning out across the worker pool (workers <= 0 uses the configured
// pool size). All workers share the estimator — and therefore the SO
// cache, so one batch warms the cache for the next. Results are
// positionally aligned with pairs and identical to calling Query serially.
func (e *Estimator) QueryBatch(pairs [][2]hin.NodeID, workers int) []float64 {
	return e.QueryBatchInto(make([]float64, len(pairs)), pairs, workers)
}

// QueryBatchInto is QueryBatch writing into a caller-provided slice
// (len(dst) must equal len(pairs)) and returning it. With a reused dst
// and serial scoring the warm path performs no allocations at all.
func (e *Estimator) QueryBatchInto(dst []float64, pairs [][2]hin.NodeID, workers int) []float64 {
	t0 := e.m.batchLat.Start()
	if workers <= 0 {
		workers = e.workers
	}
	if byWork := len(pairs) / minCandidatesPerWorker; byWork < workers {
		workers = byWork
	}
	out := dst
	if workers <= 1 {
		for i, p := range pairs {
			out[i] = e.Query(p[0], p[1])
		}
		e.finishBatch(t0, len(pairs))
		return out
	}
	var wg sync.WaitGroup
	chunk := (len(pairs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(pairs) {
			hi = len(pairs)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		e.m.poolTasks.Inc()
		go func(lo, hi int) {
			defer wg.Done()
			e.m.poolActive.Add(1)
			defer e.m.poolActive.Add(-1)
			for i := lo; i < hi; i++ {
				out[i] = e.Query(pairs[i][0], pairs[i][1])
			}
		}(lo, hi)
	}
	wg.Wait()
	e.finishBatch(t0, len(pairs))
	return out
}

// finishBatch flushes the batch-level instruments.
func (e *Estimator) finishBatch(t0 time.Time, pairs int) {
	e.m.batchLat.ObserveSince(t0)
	e.m.batches.Inc()
	e.m.batchPairs.Add(int64(pairs))
}

// walkScore computes (P/Q) * c^tau for the prefix of the i-th coupled walk
// up to its meeting offset tau, with theta pruning (lines 10-18). capped
// reports whether the theta cap cut the product short (Definition 4.5) —
// the per-walk signal behind semsim_theta_walk_caps_total. The walks are
// read through the caller's pinned views so one block probe covers all
// n_w walks of a lazy index. A non-nil co charges each step's work (the
// step itself, the SO probe by outcome, the sem kernel probe); the nil
// path takes one predictable branch per step and calls the plain so.
func (e *Estimator) walkScore(vu, vv walk.NodeView, i, tau int, co *obs.Cost) (score float64, capped bool) {
	wu := vu.Walk(i)
	wv := vv.Walk(i)
	simW := 1.0
	for s := 0; s < tau; s++ {
		cu, cv := hin.NodeID(wu[s]), hin.NodeID(wv[s])
		nu, nv := hin.NodeID(wu[s+1]), hin.NodeID(wv[s+1])

		var so float64
		if co == nil {
			so = e.so(cu, cv)
		} else {
			co.WalkSteps++
			co.KernelProbes++ // the sem(nu,nv) probe in pStep below
			var hit bool
			so, hit = e.soProbe(cu, cv)
			if hit {
				co.SOHits++
			} else {
				co.SOMisses++
			}
		}
		if so == 0 {
			return 0, false
		}
		// P step: sem(next pair) * aggregated edge weights / SO.
		wU, multU := e.g.InEdgeAggregate(cu, nu)
		wV, multV := e.g.InEdgeAggregate(cv, nv)
		pStep := e.sem.Sim(nu, nv) * wU * wV / so
		// Q step: the uniform proposal picks each in-slot equally, so
		// the probability of the chosen nodes is mult/|I|.
		qStep := float64(multU) * float64(multV) /
			(float64(e.g.InDegree(cu)) * float64(e.g.InDegree(cv)))

		simW *= pStep / qStep * e.c
		if e.theta > 0 && simW <= e.theta {
			// Definition 4.5: cap the contribution at the first step
			// the partial product drops to <= theta.
			return simW, true
		}
	}
	return simW, false
}

// TopK returns the k nodes most similar to u (excluding u) in descending
// score order, omitting zero scores — the paper's top-k similarity search
// workload. Candidates are scored in parallel across the worker pool;
// results are identical to a serial scan (rank.TopK's total order makes
// the selection independent of scoring order).
func (e *Estimator) TopK(u hin.NodeID, k int) []rank.Scored {
	return e.TopKCost(u, k, nil)
}

// TopKCost is TopK charging the scan's work to co (nil co is exactly
// TopK). Parallel workers accumulate into worker-local Costs merged
// after the join, so the accounting adds no cross-goroutine traffic.
func (e *Estimator) TopKCost(u hin.NodeID, k int, co *obs.Cost) []rank.Scored {
	t0 := e.m.topkLat.Start()
	n := e.g.NumNodes()
	workers := e.scoringWorkers(n)
	if workers <= 1 {
		h := rank.NewTopK(k)
		for v := 0; v < n; v++ {
			if hin.NodeID(v) == u {
				continue
			}
			if s := e.query(u, hin.NodeID(v), co); s > 0 {
				h.Push(rank.Scored{Node: hin.NodeID(v), Score: s})
			}
		}
		e.finishTopK(t0, h.Pushes())
		return h.Sorted()
	}
	type local struct {
		h    *rank.TopK
		cost obs.Cost
	}
	locals := make([]local, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		e.m.poolTasks.Inc()
		go func(w, lo, hi int) {
			defer wg.Done()
			e.m.poolActive.Add(1)
			defer e.m.poolActive.Add(-1)
			var wco *obs.Cost
			if co != nil {
				wco = &locals[w].cost
			}
			h := rank.NewTopK(k)
			for v := lo; v < hi; v++ {
				if hin.NodeID(v) == u {
					continue
				}
				if s := e.query(u, hin.NodeID(v), wco); s > 0 {
					h.Push(rank.Scored{Node: hin.NodeID(v), Score: s})
				}
			}
			locals[w].h = h
		}(w, lo, hi)
	}
	wg.Wait()
	h := rank.NewTopK(k)
	pushes := 0
	for w := range locals {
		if locals[w].h == nil {
			continue
		}
		if co != nil {
			co.Add(&locals[w].cost)
		}
		pushes += locals[w].h.Pushes()
		for _, s := range locals[w].h.Sorted() {
			h.Push(s)
		}
	}
	e.finishTopK(t0, pushes)
	return h.Sorted()
}

// finishTopK flushes the top-k instruments: the whole-search latency and
// the number of nonzero candidates pushed into the accumulator(s).
func (e *Estimator) finishTopK(t0 time.Time, candidates int) {
	e.m.topkLat.ObserveSince(t0)
	e.m.topks.Inc()
	e.m.topkCands.Observe(float64(candidates))
}

// TopKSemBounded is TopK accelerated by Proposition 2.5 (sim(u,v) <=
// sem(u,v)): candidates are scanned in descending semantic-similarity
// order, and the scan stops as soon as the heap holds k results whose
// k-th score beats the next candidate's semantic bound — no later
// candidate can displace anything. Results are identical to TopK; only
// the number of walk-coupling evaluations shrinks. The early-terminated
// scan is inherently sequential, so this path does not use the pool.
func (e *Estimator) TopKSemBounded(u hin.NodeID, k int) []rank.Scored {
	return e.TopKSemBoundedCost(u, k, nil)
}

// TopKSemBoundedCost is TopKSemBounded charging the scan's work —
// including the n-1 semantic bound probes of the candidate sort — to co
// (nil co is exactly TopKSemBounded).
func (e *Estimator) TopKSemBoundedCost(u hin.NodeID, k int, co *obs.Cost) []rank.Scored {
	t0 := e.m.topkLat.Start()
	n := e.g.NumNodes()
	type cand struct {
		node hin.NodeID
		sem  float64
	}
	cands := make([]cand, 0, n-1)
	for v := 0; v < n; v++ {
		if hin.NodeID(v) == u {
			continue
		}
		cands = append(cands, cand{hin.NodeID(v), e.sem.Sim(u, hin.NodeID(v))})
	}
	if co != nil {
		co.KernelProbes += int64(len(cands))
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].sem != cands[j].sem {
			return cands[i].sem > cands[j].sem
		}
		return cands[i].node < cands[j].node
	})
	h := rank.NewTopK(k)
	for _, c := range cands {
		if h.Full() {
			// Strict inequality: a candidate whose bound ties the k-th
			// score could still displace it on the node-id tiebreak.
			if kth, ok := h.Min(); ok && c.sem < kth.Score {
				e.m.semBoundCut.Inc()
				break // Prop 2.5: sim <= sem < current k-th best
			}
		}
		if s := e.query(u, c.node, co); s > 0 {
			h.Push(rank.Scored{Node: c.node, Score: s})
		}
	}
	e.finishTopK(t0, h.Pushes())
	return h.Sorted()
}
