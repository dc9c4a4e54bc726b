// Package engine is the pluggable computation layer behind the public
// semsim.Index: a Backend interface over four ways of computing the
// same SemSim scores — the pruned importance-sampling Monte-Carlo
// estimator of Section 4 (backend "mc"), the materialized G^2_theta
// reduction of Section 3 (backend "reduced", exact scores for retained
// pairs), the iterative all-pairs fixpoint of Section 2.3 (backend
// "exact", small graphs), and the Gauss-Seidel linearized solve in the
// style of Maehara et al. (backend "linear", exact up to a residual
// budget, small-to-mid graphs) — plus the adaptive query Planner that
// picks a top-k execution strategy per query from recorded graph/walk
// statistics (planner.go).
//
// Backends register themselves by name in an init-time registry
// (Register/New/Names), so future computation strategies —
// ProbeSim-style dynamic probing, remote shards — plug in without
// touching the public API: semsim.IndexOptions.Backend selects the
// implementation, and every backend answers the same four query shapes
// behind the same bounds-validated entry points.
//
// All backends are validated against each other by the differential
// conformance harness (internal/engine/conformance): every registered
// backend is driven through randomized graph and taxonomy generators,
// pairwise agreement against the exact reference with per-backend
// tolerance bands, paper invariants, capability/bounds contracts and
// hand-verified golden fixtures. A new backend gets the whole suite by
// registering — conformance discovers backends through Names().
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"semsim/internal/hin"
	"semsim/internal/obs"
	"semsim/internal/obs/quality"
	"semsim/internal/rank"
)

// Capabilities describe what a backend can do beyond the four mandatory
// query shapes, letting callers (and the public facade) route requests
// without type-switching on concrete backends.
type Capabilities struct {
	// HasSingleSource reports that SingleSource is supported (the mc
	// backend needs the inverted meet index for it; the reduced and
	// exact backends enumerate natively).
	HasSingleSource bool
	// Exact reports that returned scores are exact fixpoint values
	// rather than Monte-Carlo estimates. The reduced backend is exact
	// for retained pairs (Theorem 3.5); dropped pairs score 0.
	Exact bool
	// Prunes reports that the backend drops pairs whose semantic
	// similarity is at or below theta. Dropped pairs score 0 and the
	// loss propagates one-sidedly into retained scores, bounded by
	// theta (Prop 4.6) — the conformance harness widens its lower
	// agreement band accordingly.
	Prunes bool
}

// Backend answers the four SemSim query shapes over one prepared data
// structure, one method per shape. Implementations must be safe for
// concurrent use and must validate node IDs on every entry point: a
// malformed ID returns an error instead of indexing internal storage
// unchecked.
//
// Query and TopK charge the work they perform to co (see obs.Cost); a
// nil co turns the accounting off and leaves the answer unchanged. The
// backends that answer from a solved structure (exact, linear, reduced)
// do no per-query sampling work and leave co untouched.
type Backend interface {
	// Name is the registry name the backend was constructed under.
	Name() string
	// Caps reports the backend's capability flags.
	Caps() Capabilities
	// Query estimates sim(u,v) in [0,1].
	Query(u, v hin.NodeID, co *obs.Cost) (float64, error)
	// TopK returns the k nodes most similar to u, descending score
	// (ties by ascending node id), zero scores omitted.
	TopK(u hin.NodeID, k int, co *obs.Cost) ([]rank.Scored, error)
	// Explain answers Query(u, v, nil) together with the evidence
	// behind the score (walk samples, variance, confidence interval,
	// pruning accounting); Explanation.Score is the score Query
	// returns. Exact-family backends report a degenerate interval.
	Explain(u, v hin.NodeID) (*quality.Explanation, error)
	// SingleSource returns sim(u,v) for every v with a nonzero
	// estimate, ascending node order. Backends without the capability
	// return ErrNoSingleSource.
	SingleSource(u hin.NodeID) ([]rank.Scored, error)
	// QueryBatch evaluates many pairs, positionally aligned with the
	// input. Every pair is bounds-checked before any scoring starts.
	// workers <= 0 uses the backend's configured parallelism.
	QueryBatch(pairs [][2]hin.NodeID, workers int) ([]float64, error)
	// MemoryBytes reports the storage of the backend's prepared
	// structures (the quantities of the paper's preprocessing report).
	MemoryBytes() int64
}

// StrategyRunner is implemented by backends that can execute a specific
// top-k strategy on demand — the seam behind the deprecated
// caller-chosen TopK variants of the public API (TopKSemBounded, the
// meet-index path), which are now thin shims forcing one strategy.
type StrategyRunner interface {
	TopKWithStrategy(u hin.NodeID, k int, s Strategy) ([]rank.Scored, error)
}

// ErrNoSingleSource is returned by backends that cannot enumerate
// single-source results (the mc backend without a meet index).
var ErrNoSingleSource = fmt.Errorf("engine: backend does not support single-source queries")

// Factory builds a backend from a Config. Factories must not retain the
// Config beyond construction. ctx cancels the construction: the exact
// and linear factories check it between solve iterations and then
// return ctx.Err(); the mc and reduced factories ignore it.
type Factory func(ctx context.Context, cfg Config) (Backend, error)

// DefaultBackend is the name New resolves an empty backend name to.
const DefaultBackend = "mc"

var (
	regMu     sync.RWMutex
	factories = make(map[string]Factory)
)

// Register adds a backend factory under name. It panics on a duplicate
// name: backend names are part of the public configuration surface and
// silently replacing one is a wiring bug.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := factories[name]; dup {
		panic("engine: duplicate backend registration " + name)
	}
	factories[name] = f
}

// Names lists the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(factories))
	for n := range factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New constructs the named backend ("" selects DefaultBackend). Unknown
// names list the registered alternatives in the error.
func New(name string, cfg Config) (Backend, error) {
	return NewContext(context.Background(), name, cfg)
}

// NewContext is New with a cancellable construction: the exact and
// linear backends stop their solve at the next iteration once ctx is
// done and return ctx.Err().
func NewContext(ctx context.Context, name string, cfg Config) (Backend, error) {
	if name == "" {
		name = DefaultBackend
	}
	regMu.RLock()
	f, ok := factories[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown backend %q (registered: %v)", name, Names())
	}
	if cfg.Graph == nil {
		return nil, fmt.Errorf("engine: Config.Graph is required")
	}
	if cfg.Sem == nil {
		return nil, fmt.Errorf("engine: Config.Sem is required")
	}
	if cfg.C == 0 {
		cfg.C = 0.6
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return f(ctx, cfg)
}

// ErrNodeOutOfRange is the sentinel wrapped by every bounds-validation
// failure, letting callers (the HTTP server's 404 mapping) distinguish
// "unknown node" from other errors with errors.Is instead of matching
// message text.
var ErrNodeOutOfRange = fmt.Errorf("node id out of range")

// CheckNode validates that u indexes a node of g. All backend entry
// points run it before touching walk or matrix storage: the walk index
// slices by node id unchecked, so an out-of-range id from an untrusted
// caller would otherwise panic deep inside the scoring loop.
func CheckNode(g *hin.Graph, u hin.NodeID) error {
	if int(u) < 0 || int(u) >= g.NumNodes() {
		return fmt.Errorf("engine: %w: %d not in [0,%d)", ErrNodeOutOfRange, u, g.NumNodes())
	}
	return nil
}

// CheckPair validates both ends of a query pair.
func CheckPair(g *hin.Graph, u, v hin.NodeID) error {
	if err := CheckNode(g, u); err != nil {
		return err
	}
	return CheckNode(g, v)
}

// CheckPairs validates a batch before any scoring starts, so a bad pair
// fails the whole batch up front instead of panicking mid-flight on a
// worker goroutine.
func CheckPairs(g *hin.Graph, pairs [][2]hin.NodeID) error {
	for i, p := range pairs {
		if err := CheckPair(g, p[0], p[1]); err != nil {
			return fmt.Errorf("engine: pair %d: %w", i, err)
		}
	}
	return nil
}
