package engine

import (
	"fmt"

	"semsim/internal/hin"
	"semsim/internal/obs"
	"semsim/internal/walk"
)

// Strategy identifies one top-k execution plan over the Monte-Carlo
// estimator. The strategies the planner picks (brute, collision and,
// over a solved linearization, linear) return the identical result set
// (the equivalence suite asserts bit-identical output); they differ only
// in which candidates they touch and in what order. StrategySemBounded
// does not, and the planner never picks it.
type Strategy uint8

const (
	// StrategyBrute probes every node against u — O(n * n_w * t) meet
	// scans, parallelized across the scoring pool. Wins on small dense
	// graphs where candidate enumeration overhead dominates.
	StrategyBrute Strategy = iota
	// StrategySemBounded scans candidates in descending semantic order
	// and stops once sem(u,v), Prop 2.5's bound on the exact score,
	// falls below the heap's k-th estimate. Algorithm 1's
	// importance-sampled estimate is not bounded by sem, so a candidate
	// whose estimate exceeds its sem can be cut and the list can differ
	// from brute's. Only callers that force it run it; inherently
	// sequential.
	StrategySemBounded
	// StrategyCollision scores only candidates whose walks actually
	// meet u's, enumerated from u's own cells of the walk-keyed meet
	// index. Its cost does not grow with n, so it wins on all but tiny
	// graphs.
	StrategyCollision
	// StrategyLinear reads the linear backend's converged linearized
	// solve: every query shape is a row scan over the solved matrix.
	// Available only when the serving backend holds such a solve
	// (Stats.LinearSolved) and the graph fits the solve's node budget;
	// it then dominates every sampling strategy on cost.
	StrategyLinear

	numStrategies
)

// String returns the label used in the semsim_plan_total counter series.
func (s Strategy) String() string {
	switch s {
	case StrategyBrute:
		return "brute"
	case StrategySemBounded:
		return "sem-bounded"
	case StrategyCollision:
		return "collision"
	case StrategyLinear:
		return "linear"
	}
	return fmt.Sprintf("strategy(%d)", uint8(s))
}

// Stats are the recorded graph/walk statistics the planner decides
// from. They are collected once at index-build time (CollectStats) —
// the planner adds no per-query measurement cost.
type Stats struct {
	// Nodes is n, the graph's node count.
	Nodes int
	// AvgInDegree is the average in-degree d of the paper's cost
	// model (queries cost O(n_w * t * d^2) without the SLING cache).
	AvgInDegree float64
	// NumWalks and WalkLength are n_w and t of the walk index.
	NumWalks int
	// WalkLength is t, the walk truncation point.
	WalkLength int
	// HasMeet reports whether the inverted meet index was built.
	HasMeet bool
	// MeetEntries is the total number of inverted-index entries — the
	// sum over all walks of their non-terminated positions. MeetEntries/n
	// is the number of cells a collision enumeration reads per query.
	MeetEntries int64
	// DenseSemKernel reports that semantic evaluations go through a
	// dense precomputed kernel (one array read each). The planner no
	// longer reads it: it priced the sem-bounded scan, which the planner
	// no longer picks.
	DenseSemKernel bool
	// LinearSolved reports that the serving backend holds a converged
	// linearized solve (backend "linear"): queries are matrix reads,
	// so the planner routes to StrategyLinear whenever the graph fits
	// the solve budget.
	LinearSolved bool
	// LinearMaxNodes is the node cap the linearized solve was budgeted
	// for (0 means DefaultMaxLinearNodes). Above it the iteration
	// budget no longer amortizes and the planner must never pick the
	// linear strategy, even if LinearSolved is set.
	LinearMaxNodes int
}

// CollectStats records the planner inputs for one built index. meet may
// be nil (the collision strategy is then never chosen).
func CollectStats(g *hin.Graph, walks *walk.Index, meet *walk.MeetIndex) Stats {
	st := Stats{
		Nodes:       g.NumNodes(),
		AvgInDegree: g.AvgInDegree(),
	}
	if walks != nil {
		st.NumWalks = walks.NumWalks()
		st.WalkLength = walks.Length()
	}
	if meet != nil {
		st.HasMeet = true
		st.MeetEntries = meet.Entries()
	}
	return st
}

// Planner picks a top-k execution strategy per query from the recorded
// statistics and counts every decision into the observability registry
// as semsim_plan_total{strategy="..."} — the counters surface through
// Index.Snapshot() and /metrics. A Planner is immutable after
// construction and safe for concurrent use (the counters are atomic).
type Planner struct {
	stats Stats
	plans [numStrategies]*obs.Counter
}

// NewPlanner builds a planner over recorded statistics, registering the
// per-strategy decision counters into reg (nil reg disables counting at
// zero cost; decisions still happen).
func NewPlanner(stats Stats, reg *obs.Registry) *Planner {
	p := &Planner{stats: stats}
	for s := Strategy(0); s < numStrategies; s++ {
		p.plans[s] = reg.Counter(
			obs.SeriesName("semsim_plan_total", "strategy", s.String()),
			"top-k queries routed to each execution strategy by the adaptive planner")
	}
	return p
}

// Stats returns the statistics the planner decides from.
func (p *Planner) Stats() Stats { return p.stats }

// Peek returns the strategy the planner would pick, without recording a
// decision — introspection for explain traces and wide-event logs. The
// choice is deterministic, so Peek always matches the next TopKStrategy.
func (p *Planner) Peek() Strategy { return p.pick() }

// TopKStrategy picks the strategy for one top-k query and records the
// decision. The choice is a deterministic function of the build-time
// statistics, so repeated queries plan identically.
func (p *Planner) TopKStrategy(k int) Strategy {
	s := p.pick()
	p.plans[s].Inc()
	return s
}

// SingleSourceStrategy picks the strategy for one single-source
// enumeration and records the decision. Single-source has no
// sem-bounded variant (it must return every nonzero candidate, so
// early termination cannot apply); the choice is between the solved
// linear row scan, the collision enumeration and the brute scan.
func (p *Planner) SingleSourceStrategy() Strategy {
	s := p.pickSingleSource()
	p.plans[s].Inc()
	return s
}

func (p *Planner) pickSingleSource() Strategy {
	st := p.stats
	if st.LinearSolved && st.Nodes <= st.linearCap() {
		return StrategyLinear
	}
	if st.HasMeet {
		return StrategyCollision
	}
	return StrategyBrute
}

// linearCap is the node budget of the linearized solve.
func (st Stats) linearCap() int {
	if st.LinearMaxNodes > 0 {
		return st.LinearMaxNodes
	}
	return DefaultMaxLinearNodes
}

// pick applies the cost model. A converged linearized solve beats
// every sampling strategy — one row of O(1) reads — so it is checked
// first, guarded by the solve's node budget. The two scans are then
// compared by their dominant term:
//
//   - brute probes all n candidates, each a Meet scan over n_w coupled
//     walks: ~n * n_w walk comparisons;
//   - collision reads only u's own cells of the walk-keyed meet index,
//     one per live walk position — MeetEntries/n on average — and
//     visits about as many coupled co-locations in them, independent
//     of n, which is exactly why it wins at scale.
//
// Brute is the fallback. The sem-bounded scan is never picked: it is
// not result-identical (see StrategySemBounded).
func (p *Planner) pick() Strategy {
	st := p.stats
	if st.LinearSolved && st.Nodes <= st.linearCap() {
		return StrategyLinear
	}
	if st.HasMeet && st.Nodes > 0 {
		cells := float64(st.MeetEntries) / float64(st.Nodes)
		collision := cells + cells // cell reads plus co-locations
		brute := float64(st.Nodes) * float64(st.NumWalks)
		// The 2x margin hedges the uniform-load assumption: hub nodes
		// concentrate walk visits, so real co-location counts run above
		// one per cell.
		if collision*2 < brute {
			return StrategyCollision
		}
	}
	return StrategyBrute
}
