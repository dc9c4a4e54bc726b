package mc

import (
	"semsim/internal/hin"
	"semsim/internal/semantic"
	"semsim/internal/walk"
)

// BatchQuery evaluates many single-pair queries concurrently — the
// parallelism extension of the paper's Section 7. All workers share one
// estimator: the walk index and graph are read-only, and the SO cache
// (when opts.Cache is set) is sharded and internally locked, so the
// workers cooperatively warm a single cache instead of each paying the
// O(d^2) normalization cost for pairs another worker already computed.
// Results are positionally aligned with pairs and identical to a serial
// loop over QueryCost.
//
// workers <= 0 uses opts.Workers (which itself defaults to
// runtime.GOMAXPROCS).
func BatchQuery(ix *walk.Index, sem semantic.Measure, opts Options, pairs [][2]hin.NodeID, workers int) ([]float64, error) {
	est, err := New(ix, sem, opts)
	if err != nil {
		return nil, err
	}
	return est.QueryBatch(pairs, workers), nil
}
