package engine

import (
	"context"
	"fmt"

	"semsim/internal/core"
	"semsim/internal/hin"
	"semsim/internal/obs"
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

// matrixBackend answers every query shape from a solved all-pairs score
// matrix: queries are O(1) reads, top-k and single-source one row scan
// each. It is the exact backend as is, and the read side the linear
// backend embeds. planner, nil for exact, records each routing decision
// so semsim_plan_total shows linear routing (every strategy reads the
// same solved row).
type matrixBackend struct {
	name    string
	g       *hin.Graph
	sem     semantic.Measure
	scores  *simmat.Matrix
	planner *Planner
}

// newExactBackend solves the iterative fixpoint of Section 2.3
// (Equation 3) once at construction. Scores are exact for every pair.
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
	return &matrixBackend{name: "exact", g: cfg.Graph, sem: cfg.Sem, scores: res.Scores}, nil
}

func (b *matrixBackend) Name() string { return b.name }

func (b *matrixBackend) Caps() Capabilities {
	return Capabilities{HasSingleSource: true, Exact: true}
}

func (b *matrixBackend) Query(u, v hin.NodeID, _ *obs.Cost) (float64, error) {
	if err := CheckPair(b.g, u, v); err != nil {
		return 0, err
	}
	return b.scores.At(u, v), nil
}

func (b *matrixBackend) TopK(u hin.NodeID, k int, _ *obs.Cost) ([]rank.Scored, error) {
	if err := CheckNode(b.g, u); err != nil {
		return nil, err
	}
	if b.planner != nil {
		b.planner.TopKStrategy(k)
	}
	h := rank.NewTopK(k)
	for v, s := range b.scores.Row(u) {
		if hin.NodeID(v) == u || s <= 0 {
			continue
		}
		h.Push(rank.Scored{Node: hin.NodeID(v), Score: s})
	}
	return h.Sorted(), nil
}

func (b *matrixBackend) SingleSource(u hin.NodeID) ([]rank.Scored, error) {
	if err := CheckNode(b.g, u); err != nil {
		return nil, err
	}
	if b.planner != nil {
		b.planner.SingleSourceStrategy()
	}
	out := make([]rank.Scored, 0)
	for v, s := range b.scores.Row(u) {
		if hin.NodeID(v) == u || s <= 0 {
			continue
		}
		out = append(out, rank.Scored{Node: hin.NodeID(v), Score: s})
	}
	return out, nil
}

func (b *matrixBackend) QueryBatch(pairs [][2]hin.NodeID, workers int) ([]float64, error) {
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

func (b *matrixBackend) MemoryBytes() int64 {
	n := int64(b.scores.N())
	return n * n * 8
}
