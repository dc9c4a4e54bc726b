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
// goroutines. TopKCost and SingleSourceCost additionally fan their
// candidate scoring out across an internal worker pool (Options.Workers),
// and QueryBatch evaluates many pairs concurrently on the shared cache.
//
// # One loop per query shape
//
// Each query shape has one method, and every method runs the same
// Algorithm 1 pieces: gate (lines 1-3), walkScore (lines 10-18) and
// flush (line 19). The per-query cost accumulator (co *obs.Cost) and,
// for a pair, the explain evidence are optional parameters of that one
// loop: nil turns them off, and the scores cannot differ because there
// is no second body to drift.
package mc

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"semsim/internal/hin"
	"semsim/internal/obs"
	"semsim/internal/obs/quality"
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
	// Workers sizes the scoring pool used by TopKCost, SingleSourceCost
	// and QueryBatch. 0 uses runtime.GOMAXPROCS(0); 1 forces serial
	// scoring.
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
	norm    *pairgraph.Normalizer // N without a cache
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
	e := &Estimator{
		ix:      ix,
		g:       ix.Graph(),
		sem:     sem,
		c:       opts.C,
		theta:   opts.Theta,
		cache:   opts.Cache,
		workers: workers,
		m:       newInstruments(opts.Metrics),
	}
	if e.cache == nil {
		e.norm = pairgraph.NewNormalizer(e.g, sem)
	}
	return e, nil
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
// one is attached, and whether it came from cache storage (for cost
// accounting; without a cache every probe is a full recomputation, i.e.
// a miss). Both come from a pairgraph.Normalizer, which canonicalizes
// the pair, so cached and direct values are bit-identical.
func (e *Estimator) so(a, b hin.NodeID) (float64, bool) {
	if e.cache != nil {
		return e.cache.SO(a, b)
	}
	return e.norm.N(a, b), false
}

// QueryCost estimates sim(u,v) with Algorithm 1, charging the work
// performed — walk steps, SO-cache traffic, kernel probes, lazy block
// decodes — to co; a nil co turns the accounting off and leaves the
// score unchanged. The returned score is clamped into [0,1] (cf. Lemma
// 4.7). When metrics are enabled the call is timed into
// semsim_query_seconds and counted in semsim_queries_total; the pruning
// counters fire inside the scoring loop either way.
func (e *Estimator) QueryCost(u, v hin.NodeID, co *obs.Cost) float64 {
	t0 := e.m.queryLat.Start()
	score := e.query(u, v, co, nil)
	e.m.queryLat.ObserveSince(t0)
	e.m.queries.Inc()
	return score
}

// query is the one uninstrumented single-pair loop behind QueryCost,
// Explain and the top-k scans (which report aggregate candidate counts
// instead of per-candidate timings). co, when non-nil, receives the
// pair's cost accounting (plain field bumps, never shared across
// goroutines — parallel scans give each worker a local Cost and merge).
// ex, when non-nil, additionally receives the evidence behind the
// estimate (explain.go); the score is the same either way.
func (e *Estimator) query(u, v hin.NodeID, co *obs.Cost, ex *quality.Explanation) float64 {
	semUV, settled, sample := e.gate(u, v, co)
	if !sample {
		explainSettled(ex, semUV, settled)
		return settled
	}
	nw := e.ix.NumWalks()
	if ex != nil {
		ex.MeetsByStep = make([]int64, e.ix.Length()+1)
	}
	// One view fetch per node pins both walk blocks for the whole query:
	// in resident mode this compiles to the same slab indexing as
	// before; in lazy mode it is two cache probes instead of 2*n_w.
	vu, vv := e.ix.View(u, co), e.ix.View(v, co)
	var total, sumSq, sumCube float64
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
		if ex != nil {
			ex.MeetsByStep[tau]++
			sumSq += s * s
			sumCube += s * s * s
		}
	}
	score := e.flush(semUV, total, coupled, capped, co)
	if ex != nil {
		e.explainSampled(ex, semUV, total, sumSq, sumCube, coupled, capped)
	}
	return score
}

// gate is lines 1-3 of Algorithm 1, shared by every scoring loop. It
// charges the pair and its sem(u,v) probe to co and returns sem(u,v).
// sample is false when the pair's score is settled without walks: 1 for
// u == v (sim(u,u) = 1 by definition), 0 for a pair theta prunes.
func (e *Estimator) gate(u, v hin.NodeID, co *obs.Cost) (semUV, settled float64, sample bool) {
	if co != nil {
		co.Pairs++
		co.KernelProbes++ // the sem(u,v) probe below
	}
	if u == v {
		return 1, 1, false
	}
	semUV = e.sem.Sim(u, v)
	if e.theta > 0 && semUV <= e.theta {
		e.m.semSkips.Inc()
		if co != nil {
			co.SemSkips++
		}
		return semUV, 0, false
	}
	return semUV, 0, true
}

// flush is line 19 of Algorithm 1, shared by every scoring loop: it
// publishes a pair's pruning statistics — accumulated locally, then one
// atomic add each, so heavy concurrent scans don't serialize on the
// shared counters — and returns sem(u,v) * total / n_w clamped into
// [0,1].
func (e *Estimator) flush(semUV, total float64, coupled, capped int64, co *obs.Cost) float64 {
	e.m.walksCoupled.Add(coupled)
	e.m.walkCaps.Add(capped)
	if co != nil {
		co.WalkCaps += capped
	}
	score := semUV * total / float64(e.ix.NumWalks())
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
// positionally aligned with pairs and identical to calling QueryCost
// serially.
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
			out[i] = e.QueryCost(p[0], p[1], nil)
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
				out[i] = e.QueryCost(pairs[i][0], pairs[i][1], nil)
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
// path takes one predictable branch per step.
func (e *Estimator) walkScore(vu, vv walk.NodeView, i, tau int, co *obs.Cost) (score float64, capped bool) {
	wu := vu.Walk(i)
	wv := vv.Walk(i)
	simW := 1.0
	for s := 0; s < tau; s++ {
		cu, cv := hin.NodeID(wu[s]), hin.NodeID(wv[s])
		nu, nv := hin.NodeID(wu[s+1]), hin.NodeID(wv[s+1])

		so, stored := e.so(cu, cv)
		if co != nil {
			co.WalkSteps++
			co.KernelProbes++ // the sem(nu,nv) probe in pStep below
			if stored {
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

// TopKCost returns the k nodes most similar to u (excluding u) in
// descending score order, omitting zero scores — the paper's top-k
// similarity search workload — and charges the scan's work to co (nil
// turns the accounting off). Candidates are scored in parallel across
// the worker pool; results are identical to a serial scan (rank.TopK's
// total order makes the selection independent of scoring order).
// Parallel workers accumulate into worker-local Costs merged after the
// join, so the accounting adds no cross-goroutine traffic.
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
			if s := e.query(u, hin.NodeID(v), co, nil); s > 0 {
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
				if s := e.query(u, hin.NodeID(v), wco, nil); s > 0 {
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

// TopKSemBoundedCost is TopKCost accelerated by Proposition 2.5
// (sim(u,v) <= sem(u,v)): candidates are scanned in descending
// semantic-similarity order, and the scan stops as soon as the heap
// holds k results whose k-th score beats the next candidate's semantic
// bound. The bound holds for the exact score, not for the
// importance-sampled estimate, which can exceed sem(u,v): a later
// candidate whose estimate does is cut, so the list can differ from
// TopKCost's. The early-terminated scan is inherently sequential, so this
// path does not use the pool. co (nil for none) is charged the scan's
// work, including the n-1 semantic bound probes of the candidate sort.
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
		if s := e.query(u, c.node, co, nil); s > 0 {
			h.Push(rank.Scored{Node: c.node, Score: s})
		}
	}
	e.finishTopK(t0, h.Pushes())
	return h.Sorted()
}
