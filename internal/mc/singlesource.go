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

// SingleSourceCost estimates sim(u, v) for every v whose walks collide
// with u's, using an inverted meeting index instead of probing all n
// candidates — the single-source optimization the paper's Section 7
// leaves as future work. The result contains only nodes with a nonzero
// estimate, in ascending node order. Estimates are identical to calling
// QueryCost(u, v) per candidate (the meeting detection is the same and
// the gate and flush are shared; only the enumeration changes).
// Candidate groups are scored in parallel across the worker pool; the
// output order and values match the serial scan. co (nil for none) is
// charged the meet-index cells read, plus each group's walk scoring
// through the same per-step accounting as QueryCost; parallel workers
// accumulate into pooled worker-local Costs merged after the join.
func (e *Estimator) SingleSourceCost(u hin.NodeID, meet *walk.MeetIndex, co *obs.Cost) []rank.Scored {
	sc := ssScratchPool.Get().(*ssScratch)
	defer ssScratchPool.Put(sc)
	if !e.scoreCollisions(u, meet, co, sc) {
		return nil
	}
	out := make([]rank.Scored, 0, len(sc.groups))
	for i, g := range sc.groups {
		if sc.scores[i] > 0 {
			out = append(out, rank.Scored{Node: g.other, Score: sc.scores[i]})
		}
	}
	return out
}

// scoreCollisions is the single-source sweep behind SingleSourceCost and
// TopKWithIndexCost: it scores every node whose walks collide with u's
// into sc.groups and sc.scores (aligned, ascending node order, zero
// scores included) and flushes the single-source instruments. It
// reports false when no walk collides with u's.
func (e *Estimator) scoreCollisions(u hin.NodeID, meet *walk.MeetIndex, co *obs.Cost, sc *ssScratch) bool {
	t0 := e.m.singleLat.Start()
	vu := e.ix.View(u, co)
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
		return false
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

	// scoreGroup is query's loop over the walks the enumeration already
	// found meeting, with query's gate and flush.
	scoreGroup := func(g ssGroup, gco *obs.Cost) float64 {
		semUV, settled, sample := e.gate(u, g.other, gco)
		if !sample {
			return settled
		}
		vo := e.ix.View(g.other, gco)
		var total float64
		var capped int64
		for _, col := range cols[g.lo:g.hi] {
			s, hitCap := e.walkScore(vu, vo, int(col.Walk), col.Tau, gco)
			if hitCap {
				capped++
			}
			total += s
		}
		return e.flush(semUV, total, int64(g.hi-g.lo), capped, gco)
	}

	if cap(sc.scores) < len(groups) {
		sc.scores = make([]float64, len(groups))
	}
	scores := sc.scores[:len(groups)]
	sc.scores = scores
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

	e.finishSingleSource(t0, len(groups))
	return true
}

// finishSingleSource flushes the single-source instruments: whole-sweep
// latency and the number of colliding candidate groups evaluated.
func (e *Estimator) finishSingleSource(t0 time.Time, groups int) {
	e.m.singleLat.ObserveSince(t0)
	e.m.singles.Inc()
	e.m.singleCands.Observe(float64(groups))
}

// TopKWithIndexCost is TopKCost over the single-source enumeration: only
// nodes whose walks actually meet u's are scored. It counts as both a
// single-source sweep (the inner enumeration) and a top-k search in the
// metrics, and charges the sweep's work to co (nil for none). The heap
// takes the nonzero scores straight from the sweep's pooled scratch, so
// no single-source result is materialized.
func (e *Estimator) TopKWithIndexCost(u hin.NodeID, k int, meet *walk.MeetIndex, co *obs.Cost) []rank.Scored {
	t0 := e.m.topkLat.Start()
	sc := ssScratchPool.Get().(*ssScratch)
	defer ssScratchPool.Put(sc)
	h := rank.NewTopK(k)
	if e.scoreCollisions(u, meet, co, sc) {
		for i, g := range sc.groups {
			if s := sc.scores[i]; s > 0 && g.other != u {
				h.Push(rank.Scored{Node: g.other, Score: s})
			}
		}
	}
	e.finishTopK(t0, h.Pushes())
	return h.Sorted()
}
