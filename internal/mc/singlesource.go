package mc

import (
	"sync"
	"time"

	"semsim/internal/hin"
	"semsim/internal/obs"
	"semsim/internal/rank"
	"semsim/internal/walk"
)

// ssGroup is one colliding candidate: the node and its collision span.
type ssGroup struct {
	other  hin.NodeID
	lo, hi int
}

// ssScratch holds the per-sweep buffers (collision list, group
// boundaries, per-group scores, per-worker cost accumulators) so
// repeated single-source sweeps reuse their allocations instead of
// regrowing them on every call.
type ssScratch struct {
	cols   []walk.Collision
	groups []ssGroup
	scores []float64
	costs  []obs.Cost
}

var ssScratchPool = sync.Pool{New: func() any { return new(ssScratch) }}

// SingleSource estimates sim(u, v) for every v whose walks collide with
// u's, using an inverted meeting index instead of probing all n
// candidates — the single-source optimization the paper's Section 7
// leaves as future work. The result contains only nodes with a nonzero
// estimate, in ascending node order. Estimates are identical to calling
// Query(u, v) per candidate (the meeting detection is the same; only the
// enumeration changes). Candidate groups are scored in parallel across
// the worker pool; the output order and values match the serial scan.
func (e *Estimator) SingleSource(u hin.NodeID, meet *walk.MeetIndex) []rank.Scored {
	return e.SingleSourceCost(u, meet, nil)
}

// SingleSourceCost is SingleSource charging the sweep's work to co (nil
// co is exactly SingleSource): the meet-index cells read, plus each
// group's walk scoring through the same per-step accounting as
// QueryCost. Parallel workers accumulate into pooled worker-local Costs
// merged after the join.
func (e *Estimator) SingleSourceCost(u hin.NodeID, meet *walk.MeetIndex, co *obs.Cost) []rank.Scored {
	t0 := e.m.singleLat.Start()
	sc := ssScratchPool.Get().(*ssScratch)
	defer ssScratchPool.Put(sc)
	vu := e.ix.ViewCost(u, co)
	if co != nil {
		// The enumeration reads one meet-index cell per live position
		// of u's walks.
		for i := 0; i < e.ix.NumWalks(); i++ {
			co.MeetCells += int64(vu.Len(i))
		}
	}
	sc.cols = meet.CollisionsAppend(sc.cols[:0], u)
	cols := sc.cols
	if len(cols) == 0 {
		e.finishSingleSource(t0, 0)
		return nil
	}
	// Collisions arrive grouped by the colliding node; record the group
	// boundaries so groups can be scored independently.
	groups := sc.groups[:0]
	lo := 0
	for i := 1; i <= len(cols); i++ {
		if i == len(cols) || cols[i].Other != cols[lo].Other {
			groups = append(groups, ssGroup{cols[lo].Other, lo, i})
			lo = i
		}
	}
	sc.groups = groups

	nw := float64(e.ix.NumWalks())
	scoreGroup := func(g ssGroup, gco *obs.Cost) float64 {
		if gco != nil {
			gco.Pairs++
			gco.KernelProbes++
		}
		semUV := e.sem.Sim(u, g.other)
		if e.theta > 0 && semUV <= e.theta {
			e.m.semSkips.Inc()
			if gco != nil {
				gco.SemSkips++
			}
			return 0
		}
		vo := e.ix.ViewCost(g.other, gco)
		var total float64
		var capped int64
		for _, col := range cols[g.lo:g.hi] {
			s, hitCap := e.walkScore(vu, vo, int(col.Walk), col.Tau, gco)
			if hitCap {
				capped++
			}
			total += s
		}
		e.m.walksCoupled.Add(int64(g.hi - g.lo))
		e.m.walkCaps.Add(capped)
		if gco != nil {
			gco.WalkCaps += capped
		}
		score := semUV * total / nw
		if score > 1 {
			score = 1
		}
		return score
	}

	if cap(sc.scores) < len(groups) {
		sc.scores = make([]float64, len(groups))
	}
	scores := sc.scores[:len(groups)]
	clear(scores)
	workers := e.scoringWorkers(len(groups))
	if workers <= 1 {
		for i, g := range groups {
			scores[i] = scoreGroup(g, co)
		}
	} else {
		// Worker-local cost accumulators (pooled with the rest of the
		// scratch) merged after the join; nil co stays nil per worker.
		// The whole window is cleared up front — a pooled scratch can
		// carry stale counts from a prior sweep, and not every worker
		// slot necessarily spawns.
		if co != nil {
			if cap(sc.costs) < workers {
				sc.costs = make([]obs.Cost, workers)
			}
			clear(sc.costs[:workers])
		}
		var wg sync.WaitGroup
		chunk := (len(groups) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			glo, ghi := w*chunk, (w+1)*chunk
			if ghi > len(groups) {
				ghi = len(groups)
			}
			if glo >= ghi {
				break
			}
			wg.Add(1)
			e.m.poolTasks.Inc()
			var wco *obs.Cost
			if co != nil {
				wco = &sc.costs[w]
			}
			go func(glo, ghi int, wco *obs.Cost) {
				defer wg.Done()
				e.m.poolActive.Add(1)
				defer e.m.poolActive.Add(-1)
				for i := glo; i < ghi; i++ {
					scores[i] = scoreGroup(groups[i], wco)
				}
			}(glo, ghi, wco)
		}
		wg.Wait()
		if co != nil {
			for w := 0; w < workers; w++ {
				co.Add(&sc.costs[w])
			}
		}
	}

	out := make([]rank.Scored, 0, len(groups))
	for i, g := range groups {
		if scores[i] > 0 {
			out = append(out, rank.Scored{Node: g.other, Score: scores[i]})
		}
	}
	e.finishSingleSource(t0, len(groups))
	return out
}

// finishSingleSource flushes the single-source instruments: whole-sweep
// latency and the number of colliding candidate groups evaluated.
func (e *Estimator) finishSingleSource(t0 time.Time, groups int) {
	e.m.singleLat.ObserveSince(t0)
	e.m.singles.Inc()
	e.m.singleCands.Observe(float64(groups))
}

// TopKWithIndex is TopK over the single-source enumeration: only nodes
// whose walks actually meet u's are scored. It counts as both a
// single-source sweep (the inner enumeration) and a top-k search in the
// metrics.
func (e *Estimator) TopKWithIndex(u hin.NodeID, k int, meet *walk.MeetIndex) []rank.Scored {
	return e.TopKWithIndexCost(u, k, meet, nil)
}

// TopKWithIndexCost is TopKWithIndex charging the inner single-source
// sweep's work to co (nil co is exactly TopKWithIndex).
func (e *Estimator) TopKWithIndexCost(u hin.NodeID, k int, meet *walk.MeetIndex, co *obs.Cost) []rank.Scored {
	t0 := e.m.topkLat.Start()
	h := rank.NewTopK(k)
	for _, s := range e.SingleSourceCost(u, meet, co) {
		if s.Node != u {
			h.Push(s)
		}
	}
	e.finishTopK(t0, h.Pushes())
	return h.Sorted()
}
