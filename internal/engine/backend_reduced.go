package engine

import (
	"context"

	"semsim/internal/hin"
	"semsim/internal/obs"
	"semsim/internal/pairgraph"
	"semsim/internal/rank"
	"semsim/internal/semantic"
)

func init() {
	Register("reduced", newReducedBackend)
}

// DefaultReduceTheta is the retention threshold the reduced backend
// falls back to when Config.Theta is 0: a G^2_theta reduction needs a
// strictly positive threshold to exist (Definition 3.4), and 0.05 is
// the paper's default pruning setting.
const DefaultReduceTheta = 0.05

// reduceBuildBudget is the per-retained-source bypass-folding budget
// (pairgraph.ReduceOptions.MaxExpansions) the backend builds with: 2e4
// SARW transitions per source. Tighter than the library default because
// an engine backend must come up in interactive time even on graphs
// where theta retains a large pair set.
const reduceBuildBudget = 2e4

// reducedBackend answers queries from the materialized G^2_theta of
// Section 3, solved to its fixpoint at construction: scores of retained
// pairs (sem > theta) are exact full-G^2 SemSim values (Theorem 3.5);
// dropped pairs score 0. Build cost is O(retained pairs * d^2), so the
// backend suits mid-sized graphs whose semantic measure separates pairs
// well; queries are O(1) map lookups.
type reducedBackend struct {
	g     *hin.Graph
	sem   semantic.Measure
	theta float64
	red   *pairgraph.Reduced
}

func newReducedBackend(_ context.Context, cfg Config) (Backend, error) {
	theta := cfg.Theta
	if theta == 0 {
		theta = DefaultReduceTheta
	}
	red, err := pairgraph.Reduce(cfg.Graph, cfg.Sem, pairgraph.ReduceOptions{
		C: cfg.C, Theta: theta,
		// Build-time guardrail: on graphs whose semantic measure
		// separates pairs poorly (many retained sources next to a dense
		// dropped region), unbounded bypass folding makes construction
		// take hours. A 2e4-transition budget per retained source keeps
		// builds interactive; the drain absorbs whatever the budget
		// leaves unexplored, so retained scores only ever err low
		// (Theorem 3.5's envelope still holds).
		MaxExpansions: reduceBuildBudget,
	})
	if err != nil {
		return nil, err
	}
	iters, tol := cfg.fillSolve()
	if err := red.Solve(iters, tol); err != nil {
		return nil, err
	}
	return &reducedBackend{g: cfg.Graph, sem: cfg.Sem, theta: theta, red: red}, nil
}

func (b *reducedBackend) Name() string { return "reduced" }

func (b *reducedBackend) Caps() Capabilities {
	return Capabilities{HasSingleSource: true, Exact: true, Prunes: b.theta > 0}
}

func (b *reducedBackend) Query(u, v hin.NodeID, _ *obs.Cost) (float64, error) {
	if err := CheckPair(b.g, u, v); err != nil {
		return 0, err
	}
	return b.red.Score(u, v), nil
}

func (b *reducedBackend) TopK(u hin.NodeID, k int, _ *obs.Cost) ([]rank.Scored, error) {
	if err := CheckNode(b.g, u); err != nil {
		return nil, err
	}
	h := rank.NewTopK(k)
	for v := 0; v < b.g.NumNodes(); v++ {
		if hin.NodeID(v) == u {
			continue
		}
		if s := b.red.Score(u, hin.NodeID(v)); s > 0 {
			h.Push(rank.Scored{Node: hin.NodeID(v), Score: s})
		}
	}
	return h.Sorted(), nil
}

func (b *reducedBackend) SingleSource(u hin.NodeID) ([]rank.Scored, error) {
	if err := CheckNode(b.g, u); err != nil {
		return nil, err
	}
	out := make([]rank.Scored, 0)
	for v := 0; v < b.g.NumNodes(); v++ {
		if hin.NodeID(v) == u {
			continue
		}
		if s := b.red.Score(u, hin.NodeID(v)); s > 0 {
			out = append(out, rank.Scored{Node: hin.NodeID(v), Score: s})
		}
	}
	return out, nil
}

func (b *reducedBackend) QueryBatch(pairs [][2]hin.NodeID, workers int) ([]float64, error) {
	if err := CheckPairs(b.g, pairs); err != nil {
		return nil, err
	}
	// Each score is an O(1) lookup; fanning out would cost more in
	// goroutine churn than it saves, so the workers hint is ignored.
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = b.red.Score(p[0], p[1])
	}
	return out, nil
}

func (b *reducedBackend) MemoryBytes() int64 { return b.red.MemoryBytes() }
