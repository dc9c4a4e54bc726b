package obs

// Cost is a per-query work accumulator: every counter a query path can
// spend is one field, so a single struct answers "where did this query's
// time go" — walk steps scanned, meet cells probed, SO-cache traffic,
// kernel probes, lazy block-cache traffic — without the caller decoding
// histograms. It is designed for the hot path: callers allocate one Cost
// on the stack (or reuse one), pass a pointer down, and the query loops
// bump plain int64 fields — no atomics, no interfaces, no allocation. A
// nil *Cost disables accounting; every helper is a no-op on nil, so the
// uncosted paths pay one predictable branch.
//
// The struct marshals directly into the query log and /explain, which is
// why the fields carry JSON tags; zero fields are kept (not omitempty) so
// log consumers can join rows without per-field existence checks.
type Cost struct {
	// Pairs counts single-pair evaluations folded into this accumulator
	// (1 for Query, one per candidate for TopK/SingleSource).
	Pairs int64 `json:"pairs"`
	// WalkSteps counts coupled-walk step evaluations (the P/Q product
	// loop of Algorithm 1) — the dominant term on un-pruned queries.
	WalkSteps int64 `json:"walk_steps"`
	// MeetCells counts meet-index cells read during single-source
	// sweeps: one per live position of the source's walks.
	MeetCells int64 `json:"meet_cells"`
	// SOHits / SOMisses count SLING SO-cache probes by outcome. A miss
	// is an O(d^2) pairgraph recomputation.
	SOHits   int64 `json:"so_hits"`
	SOMisses int64 `json:"so_misses"`
	// KernelProbes counts semantic-measure sim(a,b) evaluations (array
	// reads on the precomputed kernel, taxonomy walks otherwise).
	KernelProbes int64 `json:"kernel_probes"`
	// SemSkips counts candidates pruned by the theta semantic gate
	// before any walk work.
	SemSkips int64 `json:"sem_skips"`
	// WalkCaps counts coupled walks cut short by the theta cap.
	WalkCaps int64 `json:"walk_caps"`
	// BlockHits / BlockMisses / BytesDecoded count lazy walk-index
	// block-cache traffic; a miss decodes a v3 block (BytesDecoded is
	// the decoded size). All three stay 0 on resident indexes.
	BlockHits    int64 `json:"block_hits"`
	BlockMisses  int64 `json:"block_misses"`
	BytesDecoded int64 `json:"bytes_decoded"`
}

// Add folds o into c. No-op on a nil receiver — parallel scoring workers
// accumulate into locals and the merge loop calls Add unconditionally.
func (c *Cost) Add(o *Cost) {
	if c == nil || o == nil {
		return
	}
	c.Pairs += o.Pairs
	c.WalkSteps += o.WalkSteps
	c.MeetCells += o.MeetCells
	c.SOHits += o.SOHits
	c.SOMisses += o.SOMisses
	c.KernelProbes += o.KernelProbes
	c.SemSkips += o.SemSkips
	c.WalkCaps += o.WalkCaps
	c.BlockHits += o.BlockHits
	c.BlockMisses += o.BlockMisses
	c.BytesDecoded += o.BytesDecoded
}

// Reset zeroes the accumulator for reuse.
func (c *Cost) Reset() {
	if c == nil {
		return
	}
	*c = Cost{}
}

// IsZero reports whether no work was recorded (the all-zero value).
func (c *Cost) IsZero() bool {
	return c == nil || *c == Cost{}
}

// Work collapses the accumulator into a single comparable scalar for
// ranking (the heavy-hitters tracker). The weights approximate relative
// per-unit cost on the bench box: a walk step, kernel probe or cached SO
// hit are each a few ns; an SO miss is an O(d^2) recomputation (~2
// orders heavier); a block miss is a varint decode of a ~64 KiB block,
// charged via BytesDecoded so small tail blocks don't weigh like full
// ones. The absolute scale is arbitrary — only the ordering matters.
func (c *Cost) Work() int64 {
	if c == nil {
		return 0
	}
	return c.WalkSteps + c.MeetCells + c.KernelProbes + c.SOHits +
		100*c.SOMisses + c.BlockHits + 16*c.BlockMisses + c.BytesDecoded/64
}

// CostHists is the registry-export side of cost accounting: one
// semsim_query_cost_* histogram per counter, observed once per request by
// the serving layer. The per-request observation is outside the query hot
// path, so the 8 histogram updates cost nothing on the benchmarked warm
// paths. Nil is off.
type CostHists struct {
	walkSteps    *Histogram
	meetCells    *Histogram
	soHits       *Histogram
	soMisses     *Histogram
	kernelProbes *Histogram
	blockHits    *Histogram
	blockMisses  *Histogram
	bytesDecoded *Histogram
}

// NewCostHists registers the semsim_query_cost_* histogram family on r.
// Returns nil on a nil registry.
func NewCostHists(r *Registry) *CostHists {
	if r == nil {
		return nil
	}
	h := func(name, what string) *Histogram {
		return r.Histogram("semsim_query_cost_"+name,
			"Per-request "+what+" (cost accounting)", CountBuckets)
	}
	return &CostHists{
		walkSteps:    h("walk_steps", "coupled-walk steps scanned"),
		meetCells:    h("meet_cells", "meet-index collision cells probed"),
		soHits:       h("so_hits", "SO-cache hits"),
		soMisses:     h("so_misses", "SO-cache misses (full recomputations)"),
		kernelProbes: h("kernel_probes", "semantic kernel probes"),
		blockHits:    h("block_hits", "lazy walk block-cache hits"),
		blockMisses:  h("block_misses", "lazy walk block-cache misses (block decodes)"),
		bytesDecoded: h("bytes_decoded", "lazy walk bytes decoded"),
	}
}

// Observe records one request's cost into the histogram family. No-op
// when either side is nil.
func (h *CostHists) Observe(c *Cost) {
	if h == nil || c == nil {
		return
	}
	h.walkSteps.Observe(float64(c.WalkSteps))
	h.meetCells.Observe(float64(c.MeetCells))
	h.soHits.Observe(float64(c.SOHits))
	h.soMisses.Observe(float64(c.SOMisses))
	h.kernelProbes.Observe(float64(c.KernelProbes))
	h.blockHits.Observe(float64(c.BlockHits))
	h.blockMisses.Observe(float64(c.BlockMisses))
	h.bytesDecoded.Observe(float64(c.BytesDecoded))
}
