package mc

import (
	"slices"
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

// ssScratch is one collision scan's pooled working set. Scans on
// estimators of different sizes share the pool, so every buffer is
// grown to the scan's size before use.
type ssScratch struct {
	fanout
	// The scan's inputs, set for its duration.
	e    *Estimator
	u    hin.NodeID
	vu   walk.NodeView
	meet *walk.MeetIndex
	// Phase 1: each walk chunk's first meetings, each participant's
	// seen flags (walk.MeetIndex.MeetingsAppend), and u's step inputs,
	// one row of t per walk slot.
	parts [][]walk.Collision
	seen  [][]bool
	steps []uStep
	// Phases 2 and 3: the meetings in walk order, grouped by source, the
	// group boundaries and the per-group scores.
	raw    []walk.Collision
	cols   []walk.Collision
	groups []ssGroup
	scores []float64
}

var ssScratchPool = sync.Pool{New: func() any { return new(ssScratch) }}

// SingleSourceCost estimates sim(u, v) for every v whose walks collide
// with u's, using an inverted meeting index instead of probing all n
// candidates — the single-source optimization the paper's Section 7
// leaves as future work. The result contains only nodes with a nonzero
// estimate, in ascending node order. Estimates are identical to calling
// QueryCost(u, v) per candidate (the meeting detection is the same and
// the gate and flush are shared; only the enumeration changes). co (nil
// for none) is charged the meet-index cells read, plus each group's walk
// scoring through the same per-step accounting as QueryCost.
func (e *Estimator) SingleSourceCost(u hin.NodeID, meet *walk.MeetIndex, co *obs.Cost) []rank.Scored {
	sc := ssScratchPool.Get().(*ssScratch)
	var out []rank.Scored
	if e.scoreCollisions(u, meet, co, sc) {
		out = make([]rank.Scored, 0, len(sc.groups))
		for i, g := range sc.groups {
			if sc.scores[i] > 0 {
				out = append(out, rank.Scored{Node: g.other, Score: sc.scores[i]})
			}
		}
	}
	ssScratchPool.Put(sc)
	return out
}

// scoreCollisions is the single-source sweep behind SingleSourceCost and
// TopKWithIndexCost: it scores every node whose walks collide with u's
// into sc.groups and sc.scores (aligned, ascending node order, zero
// scores included) and flushes the single-source instruments. It
// reports false when no walk collides with u's.
//
// The sweep runs in three phases, the first and last split into chunks
// across the worker pool:
//  1. per walk chunk, the first meetings of u's walks and u's half of
//     each step up to the walk's last meeting (read once per scan
//     rather than once per coupled walk);
//  2. the chunks concatenated in walk order and grouped by source;
//  3. per group chunk, query's gate, walk scoring and flush.
//
// A scan that panics leaves sc dirty, so callers return sc to the pool
// only after a normal return.
func (e *Estimator) scoreCollisions(u hin.NodeID, meet *walk.MeetIndex, co *obs.Cost, sc *ssScratch) bool {
	t0 := e.m.singleLat.Start()
	n, nw, t := e.g.NumNodes(), e.ix.NumWalks(), e.ix.Length()
	vu := e.ix.View(u, co)
	if co != nil {
		// The enumeration reads one meet-index cell per live position
		// of u's walks.
		for i := 0; i < nw; i++ {
			co.MeetCells += int64(vu.Len(i))
		}
	}
	sc.e, sc.u, sc.vu, sc.meet = e, u, vu, meet
	defer sc.release()

	chunks := numChunks(nw, walkChunk)
	participants := min(e.workers, chunks)
	sc.parts = slices.Grow(sc.parts[:0], chunks)[:chunks]
	sc.seen = slices.Grow(sc.seen[:0], participants)[:participants]
	for p, seen := range sc.seen {
		sc.seen[p] = slices.Grow(seen[:0], n)[:n]
	}
	sc.steps = slices.Grow(sc.steps[:0], nw*t)[:nw*t]
	sc.run(e, participants, chunks, nil, walkChunks{sc})

	raw := sc.raw[:0]
	for _, part := range sc.parts {
		raw = append(raw, part...)
	}
	sc.raw = raw
	if len(raw) == 0 {
		e.finishSingleSource(t0, 0)
		return false
	}
	cols := walk.GroupBySource(sc.cols[:0], raw, n)
	sc.cols = cols
	groups := sc.groups[:0]
	lo := 0
	for i := 1; i <= len(cols); i++ {
		if i == len(cols) || cols[i].Other != cols[lo].Other {
			groups = append(groups, ssGroup{cols[lo].Other, lo, i})
			lo = i
		}
	}
	sc.groups = groups

	sc.scores = slices.Grow(sc.scores[:0], len(groups))[:len(groups)]
	sc.run(e, e.scoringWorkers(len(groups)), numChunks(len(groups), pairChunk), co, groupChunks{sc})

	e.finishSingleSource(t0, len(groups))
	return true
}

// release drops the scan's references to its estimator and indexes, so
// a pooled scratch keeps no superseded epoch alive.
func (sc *ssScratch) release() {
	sc.e, sc.meet, sc.vu = nil, nil, walk.NodeView{}
}

// walkChunks is phase 1 of a collision scan.
type walkChunks struct{ *ssScratch }

func (sc walkChunks) runChunk(p, c int) {
	e, nw, t := sc.e, sc.e.ix.NumWalks(), sc.e.ix.Length()
	lo, hi := chunkBounds(c, walkChunk, nw)
	part := sc.meet.MeetingsAppend(sc.parts[c][:0], sc.u, sc.vu, lo, hi, sc.seen[p])
	sc.parts[c] = part
	for j, col := range part {
		if j+1 < len(part) && part[j+1].Walk == col.Walk {
			continue
		}
		// col is its walk's last first meeting: no coupled walk
		// scores a step of u's walk past it.
		i := int(col.Walk)
		w, steps := sc.vu.Walk(i), sc.steps[i*t:]
		for s := 0; s < col.Tau; s++ {
			steps[s] = e.stepInputs(hin.NodeID(w[s]), hin.NodeID(w[s+1]))
		}
	}
}

// groupChunks is phase 3 of a collision scan: query's loop over the
// walks the enumeration already found meeting, with query's gate and
// flush.
type groupChunks struct{ *ssScratch }

func (sc groupChunks) runChunk(p, c int) {
	e, t := sc.e, sc.e.ix.Length()
	co := sc.cost(p)
	lo, hi := chunkBounds(c, pairChunk, len(sc.groups))
	for gi := lo; gi < hi; gi++ {
		g := sc.groups[gi]
		semUV, settled, sample := e.gate(sc.u, g.other, co)
		if !sample {
			sc.scores[gi] = settled
			continue
		}
		vo := e.ix.View(g.other, co)
		var total float64
		var capped int64
		for _, col := range sc.cols[g.lo:g.hi] {
			i := int(col.Walk)
			s, hitCap := e.walkScore(sc.vu, vo, i, col.Tau, sc.steps[i*t:(i+1)*t], co)
			if hitCap {
				capped++
			}
			total += s
		}
		sc.scores[gi] = e.flush(semUV, total, int64(g.hi-g.lo), capped, co)
	}
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
	h := rank.NewTopK(k)
	if e.scoreCollisions(u, meet, co, sc) {
		for i, g := range sc.groups {
			if s := sc.scores[i]; s > 0 && g.other != u {
				h.Push(rank.Scored{Node: g.other, Score: s})
			}
		}
	}
	ssScratchPool.Put(sc)
	e.finishTopK(t0, h.Pushes())
	return h.Sorted()
}
