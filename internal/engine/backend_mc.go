package engine

import (
	"context"
	"fmt"

	"semsim/internal/hin"
	"semsim/internal/mc"
	"semsim/internal/obs"
	"semsim/internal/rank"
	"semsim/internal/walk"
)

func init() {
	Register("mc", newMCBackend)
}

// mcBackend wraps the pruned importance-sampling estimator of
// Algorithm 1 (Section 4) — the default, approximate, scale-oriented
// backend. Top-k queries route through one of three strategies; with a
// Planner attached the choice is adaptive, otherwise it reproduces the
// historical caller-chosen default (collision-driven when a meet index
// exists, brute scan otherwise) bit for bit.
type mcBackend struct {
	g       *hin.Graph
	est     *mc.Estimator
	walks   *walk.Index
	meet    *walk.MeetIndex
	planner *Planner
}

func newMCBackend(_ context.Context, cfg Config) (Backend, error) {
	est := cfg.Estimator
	walks := cfg.Walks
	if est == nil {
		if walks == nil {
			return nil, fmt.Errorf("engine: mc backend requires Config.Estimator or Config.Walks")
		}
		var err error
		est, err = mc.New(walks, cfg.Sem, mc.Options{
			C: cfg.C, Theta: cfg.Theta, Cache: cfg.Cache,
			Workers: cfg.Workers, Metrics: cfg.Metrics,
		})
		if err != nil {
			return nil, err
		}
	}
	return &mcBackend{
		g:       cfg.Graph,
		est:     est,
		walks:   walks,
		meet:    cfg.Meet,
		planner: cfg.Planner,
	}, nil
}

func (b *mcBackend) Name() string { return "mc" }

func (b *mcBackend) Caps() Capabilities {
	return Capabilities{HasSingleSource: b.meet != nil, Exact: false}
}

func (b *mcBackend) Query(u, v hin.NodeID, co *obs.Cost) (float64, error) {
	if err := CheckPair(b.g, u, v); err != nil {
		return 0, err
	}
	return b.est.QueryCost(u, v, co), nil
}

// TopK routes through the planner's strategy (or the static default)
// and charges the scan's work to co.
func (b *mcBackend) TopK(u hin.NodeID, k int, co *obs.Cost) ([]rank.Scored, error) {
	if err := CheckNode(b.g, u); err != nil {
		return nil, err
	}
	s := b.defaultStrategy()
	if b.planner != nil {
		s = b.planner.TopKStrategy(k)
	}
	return b.runTopK(u, k, s, co), nil
}

// TopKWithStrategy implements StrategyRunner: it forces one execution
// strategy, bypassing the planner — the seam the deprecated
// caller-chosen public variants (TopKSemBounded, the explicit meet-index
// path) shim onto.
func (b *mcBackend) TopKWithStrategy(u hin.NodeID, k int, s Strategy) ([]rank.Scored, error) {
	if err := CheckNode(b.g, u); err != nil {
		return nil, err
	}
	if s >= numStrategies {
		return nil, fmt.Errorf("engine: unknown strategy %d", s)
	}
	return b.runTopK(u, k, s, nil), nil
}

// defaultStrategy reproduces the pre-engine Index.TopK routing exactly:
// the meet-index path when one was built, the brute scan otherwise.
func (b *mcBackend) defaultStrategy() Strategy {
	if b.meet != nil {
		return StrategyCollision
	}
	return StrategyBrute
}

// runTopK executes strategy s, charging its work to co (nil for none).
func (b *mcBackend) runTopK(u hin.NodeID, k int, s Strategy, co *obs.Cost) []rank.Scored {
	switch s {
	case StrategyCollision:
		if b.meet != nil {
			return b.est.TopKWithIndexCost(u, k, b.meet, co)
		}
		// Planner misconfiguration shouldn't lose the query; the brute
		// scan answers everything the collision path can.
		return b.est.TopKCost(u, k, co)
	case StrategySemBounded:
		return b.est.TopKSemBoundedCost(u, k, co)
	default:
		return b.est.TopKCost(u, k, co)
	}
}

func (b *mcBackend) SingleSource(u hin.NodeID) ([]rank.Scored, error) {
	if err := CheckNode(b.g, u); err != nil {
		return nil, err
	}
	if b.meet == nil {
		return nil, ErrNoSingleSource
	}
	return b.est.SingleSourceCost(u, b.meet, nil), nil
}

func (b *mcBackend) QueryBatch(pairs [][2]hin.NodeID, workers int) ([]float64, error) {
	if err := CheckPairs(b.g, pairs); err != nil {
		return nil, err
	}
	return b.est.QueryBatch(pairs, workers), nil
}

// MemoryBytes reports the walk index plus the attached SLING cache and
// meet index — the full substrate the estimator queries against.
func (b *mcBackend) MemoryBytes() int64 {
	var m int64
	if b.walks != nil {
		m += b.walks.MemoryBytes()
	}
	if c := b.est.Cache(); c != nil {
		m += c.MemoryBytes()
	}
	if b.meet != nil {
		m += b.meet.MemoryBytes()
	}
	return m
}
