package engine

import (
	"context"
	"fmt"

	"semsim/internal/core"
	"semsim/internal/hin"
	"semsim/internal/rank"
	"semsim/internal/semantic"
	"semsim/internal/simmat"
)

func init() {
	Register("exact", newExactBackend)
}

// DefaultMaxExactNodes caps the graph size the exact backend accepts by
// default: its all-pairs matrix is O(n^2) floats and each fixpoint sweep
// is O(n^2 d^2), so it is a ground-truth backend for small graphs, not a
// serving path.
const DefaultMaxExactNodes = 4096

// exactBackend answers queries from the converged iterative fixpoint of
// Section 2.3 (Equation 3), computed once at construction. Scores are
// exact for every pair; queries are O(1) matrix reads and top-k is one
// row scan.
type exactBackend struct {
	g      *hin.Graph
	sem    semantic.Measure
	scores *simmat.Matrix
}

// semOf evaluates the semantic measure for an Explanation (sem(u,u)=1
// by definition without a measure probe).
func (b *exactBackend) semOf(u, v hin.NodeID) float64 {
	if u == v {
		return 1
	}
	return b.sem.Sim(u, v)
}

func newExactBackend(ctx context.Context, cfg Config) (Backend, error) {
	limit := cfg.MaxExactNodes
	if limit == 0 {
		limit = DefaultMaxExactNodes
	}
	if n := cfg.Graph.NumNodes(); n > limit {
		return nil, fmt.Errorf("engine: exact backend caps at %d nodes, graph has %d (use the mc or reduced backend)", limit, n)
	}
	iters, tol := cfg.fillSolve()
	res, err := core.IterativeContext(ctx, cfg.Graph, cfg.Sem, core.IterOptions{
		C: cfg.C, MaxIterations: iters, Tol: tol, Parallel: true,
	})
	if err != nil {
		return nil, err
	}
	return &exactBackend{g: cfg.Graph, sem: cfg.Sem, scores: res.Scores}, nil
}

func (b *exactBackend) Name() string { return "exact" }

func (b *exactBackend) Caps() Capabilities {
	return Capabilities{HasSingleSource: true, Exact: true}
}

func (b *exactBackend) Query(u, v hin.NodeID) (float64, error) {
	if err := CheckPair(b.g, u, v); err != nil {
		return 0, err
	}
	return b.scores.At(u, v), nil
}

func (b *exactBackend) TopK(u hin.NodeID, k int) ([]rank.Scored, error) {
	if err := CheckNode(b.g, u); err != nil {
		return nil, err
	}
	h := rank.NewTopK(k)
	row := b.scores.Row(u)
	for v, s := range row {
		if hin.NodeID(v) == u || s <= 0 {
			continue
		}
		h.Push(rank.Scored{Node: hin.NodeID(v), Score: s})
	}
	return h.Sorted(), nil
}

func (b *exactBackend) SingleSource(u hin.NodeID) ([]rank.Scored, error) {
	if err := CheckNode(b.g, u); err != nil {
		return nil, err
	}
	row := b.scores.Row(u)
	out := make([]rank.Scored, 0)
	for v, s := range row {
		if hin.NodeID(v) == u || s <= 0 {
			continue
		}
		out = append(out, rank.Scored{Node: hin.NodeID(v), Score: s})
	}
	return out, nil
}

func (b *exactBackend) QueryBatch(pairs [][2]hin.NodeID, workers int) ([]float64, error) {
	if err := CheckPairs(b.g, pairs); err != nil {
		return nil, err
	}
	// Matrix reads are O(1); the workers hint is ignored.
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = b.scores.At(p[0], p[1])
	}
	return out, nil
}

func (b *exactBackend) MemoryBytes() int64 {
	n := int64(b.scores.N())
	return n * n * 8
}
