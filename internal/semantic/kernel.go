package semantic

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"semsim/internal/core/pairkey"
	"semsim/internal/hin"
	"semsim/internal/obs"
	"semsim/internal/taxonomy"
)

// Kernel is a precomputed semantic-similarity layer: it wraps a Measure
// and answers Sim from a materialized concept-pair table instead of
// re-deriving the value (Euler-tour LCA walks, IC arithmetic) on every
// probe. The Monte-Carlo query path of Section 4 evaluates sem once per
// coupled-walk step, so on the hot path this turns the dominant
// per-step cost into a single array read.
//
// Values are bit-identical to the wrapped measure. The kernel first
// collapses interchangeable nodes into concept classes: two taxonomy
// leaves with the same parent and the same IC bits are indistinguishable
// to every measure shipped by this package (their LCA against any third
// node is decided at the shared parent, and their IC, depth and path
// lengths coincide), so instance-heavy HINs — millions of authors
// hanging off a few thousand topic concepts — collapse to a small class
// set. Then:
//
//   - dense mode: when the triangular class-pair matrix fits
//     KernelOptions.MemoryBudget, every cell is precomputed at build
//     time, fill parallelized across row chunks. Sim is two class loads
//     and one float64 load — lock-free, allocation-free.
//   - memo mode: otherwise a sharded, striped-lock class-pair cache
//     fills lazily (the SOCache discipline), bounding memory to the
//     class pairs queries actually touch.
//
// A Kernel is safe for concurrent use: dense tables are immutable after
// construction and memo shards take striped RW locks.
//
// The wrapped measure must be immutable: the kernel snapshots its values
// at build (dense) or first probe (memo). To layer mutable overrides on
// top, wrap the kernel — NewOverride(NewKernel(base, ...)) — never the
// other way around; Override values set after kernel construction would
// not be observed.
type Kernel struct {
	base Measure
	n    int

	class    []int32 // node id -> class id
	nClasses int

	// classPair[c] for a class c with >= 2 member nodes holds the
	// base value of a *distinct* same-class pair (sem of two different
	// leaves under one parent — not 1, which is only the diagonal).
	// Dense mode stores it in the matrix diagonal cell; memo mode
	// computes it like any other class pair.

	// Dense mode.
	dense  []float64
	rowOff []int64 // rowOff[a] + b indexes cell (a<=b)

	// Memo mode.
	memo *kernelMemo

	hits   *obs.Counter
	misses *obs.Counter
}

// KernelOptions configure NewKernel.
type KernelOptions struct {
	// MemoryBudget caps the dense class-pair matrix in bytes; class
	// sets whose triangular matrix exceeds it fall back to the memo
	// cache. 0 uses DefaultKernelBudget.
	MemoryBudget int64
	// Workers sizes the parallel dense fill. 0 uses GOMAXPROCS; 1
	// forces a serial fill. Fill order never affects values — every
	// cell is computed independently from the same representatives.
	Workers int
	// Metrics, when non-nil, receives the kernel's instruments:
	// semsim_kernel_mode, semsim_kernel_classes, semsim_kernel_bytes
	// gauges, the semsim_kernel_fill_seconds histogram and the memo
	// mode's semsim_kernel_hits_total / semsim_kernel_misses_total
	// counters. A dense lookup counts nothing: one shared counter
	// bumped per probe would serialize every scoring worker on it, and
	// per-request probe counts are already in obs.Cost.KernelProbes.
	// Nil disables at zero hot-path cost (nil instruments are no-ops).
	Metrics *obs.Registry
}

// DefaultKernelBudget is the dense-matrix budget when
// KernelOptions.MemoryBudget is 0: 64 MiB, enough for ~4000 distinct
// concept classes.
const DefaultKernelBudget = 64 << 20

// kernelShardBits fixes 64 lock stripes for the memo mode, matching the
// SOCache striping that the concurrent query pools are sized against.
const kernelShardBits = 6

type kernelMemo struct {
	shards [1 << kernelShardBits]kernelShard
}

type kernelShard struct {
	mu   sync.RWMutex
	vals map[uint64]float64
}

// NewKernel builds the precomputed layer over base for the node domain
// [0, n). It never fails for admissible inputs; n <= 0 is rejected.
func NewKernel(base Measure, n int, opts KernelOptions) (*Kernel, error) {
	if base == nil {
		return nil, fmt.Errorf("semantic: kernel needs a base measure")
	}
	if n <= 0 {
		return nil, fmt.Errorf("semantic: kernel domain must be positive, got n = %d", n)
	}
	budget := opts.MemoryBudget
	if budget <= 0 {
		budget = DefaultKernelBudget
	}
	k := &Kernel{base: base, n: n}
	k.class, k.nClasses = conceptClasses(base, n)
	k.hits = opts.Metrics.Counter("semsim_kernel_hits_total",
		"semantic-kernel memo hits (value served from the memo cache); dense lookups are not counted")
	k.misses = opts.Metrics.Counter("semsim_kernel_misses_total",
		"semantic-kernel memo misses (value computed from the base measure and stored)")

	nc := int64(k.nClasses)
	cells := nc * (nc + 1) / 2
	if cells*8 <= budget {
		fillLat := opts.Metrics.Histogram("semsim_kernel_fill_seconds",
			"wall time of the parallel dense kernel fill", nil)
		t0 := fillLat.Start()
		k.fillDense(opts.Workers)
		fillLat.ObserveSince(t0)
		opts.Metrics.Counter("semsim_kernel_pairs_filled_total",
			"concept-pair cells materialized by dense kernel fills").Add(cells)
	} else {
		k.memo = &kernelMemo{}
		for i := range k.memo.shards {
			k.memo.shards[i].vals = make(map[uint64]float64)
		}
	}
	opts.Metrics.Gauge("semsim_kernel_mode",
		"semantic-kernel mode: 1 = dense precomputed matrix, 2 = sharded memo cache").Set(int64(k.modeCode()))
	opts.Metrics.Gauge("semsim_kernel_classes",
		"distinct concept classes after collapsing interchangeable taxonomy leaves").Set(nc)
	opts.Metrics.Gauge("semsim_kernel_bytes",
		"storage of the kernel's class map plus dense matrix").Set(k.MemoryBytes())
	return k, nil
}

// conceptClasses partitions [0, n) into classes such that base.Sim for
// distinct arguments depends only on the argument classes. Taxonomy
// measures collapse leaves by (parent, IC bits); every other measure
// gets the always-valid identity partition.
func conceptClasses(base Measure, n int) ([]int32, int) {
	var tax *taxonomy.Taxonomy
	switch m := base.(type) {
	case Lin:
		tax = m.Tax
	case Resnik:
		tax = m.Tax
	case WuPalmer:
		tax = m.Tax
	case JiangConrath:
		tax = m.Tax
	case Path:
		tax = m.Tax
	case Uniform:
		// sem = 1 everywhere: a single class.
		return make([]int32, n), 1
	}
	if tax == nil || tax.NumConcepts() != n+1 {
		// Unknown measure, or a taxonomy that does not cover exactly
		// the node domain: fall back to one class per node.
		return identityClasses(n), n
	}
	class := make([]int32, n)
	type leafKey struct {
		parent int32
		icBits uint64
	}
	leaf := make(map[leafKey]int32)
	next := int32(0)
	for v := 0; v < n; v++ {
		if tax.Descendants(int32(v)) == 0 {
			// A leaf is interchangeable with its same-parent, same-IC
			// siblings: their LCA against any third node resolves at
			// the shared parent, and parent fixes the depth.
			key := leafKey{tax.Parent(int32(v)), math.Float64bits(tax.IC(int32(v)))}
			if c, ok := leaf[key]; ok {
				class[v] = c
				continue
			}
			leaf[key] = next
		}
		class[v] = next
		next++
	}
	return class, int(next)
}

func identityClasses(n int) []int32 {
	class := make([]int32, n)
	for v := range class {
		class[v] = int32(v)
	}
	return class
}

// representatives returns, per class, the two smallest member node ids
// (rep2 = -1 for singleton classes). Using the smallest members keeps
// the dense fill deterministic.
func (k *Kernel) representatives() (rep, rep2 []int32) {
	rep = make([]int32, k.nClasses)
	rep2 = make([]int32, k.nClasses)
	for i := range rep {
		rep[i], rep2[i] = -1, -1
	}
	for v := 0; v < k.n; v++ {
		c := k.class[v]
		switch {
		case rep[c] < 0:
			rep[c] = int32(v)
		case rep2[c] < 0:
			rep2[c] = int32(v)
		}
	}
	return rep, rep2
}

// fillDense materializes the triangular class-pair matrix, parallel
// across row chunks. Cell (a,b) with a < b holds base.Sim over the class
// representatives; the diagonal cell (a,a) holds the distinct-pair
// value of class a (two different leaves under one parent), or 1 for
// singleton classes where it can never be read.
func (k *Kernel) fillDense(workers int) {
	nc := k.nClasses
	k.rowOff = make([]int64, nc)
	var off int64
	for a := 0; a < nc; a++ {
		// Cell (a,b) lives at rowOff[a] + b, for b in [a, nc).
		k.rowOff[a] = off - int64(a)
		off += int64(nc - a)
	}
	k.dense = make([]float64, off)
	rep, rep2 := k.representatives()

	fillRows := func(lo, hi int) {
		for a := lo; a < hi; a++ {
			row := k.dense[k.rowOff[a]:]
			u := hin.NodeID(rep[a])
			if rep2[a] >= 0 {
				row[a] = k.base.Sim(u, hin.NodeID(rep2[a]))
			} else {
				row[a] = 1
			}
			for b := a + 1; b < nc; b++ {
				row[b] = k.base.Sim(u, hin.NodeID(rep[b]))
			}
		}
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nc {
		workers = nc
	}
	if workers <= 1 {
		fillRows(0, nc)
		return
	}
	// Early rows are the longest; hand out small row blocks from an
	// atomic cursor so workers stay balanced without partitioning math.
	const rowBlock = 16
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(rowBlock)) - rowBlock
				if lo >= nc {
					return
				}
				hi := lo + rowBlock
				if hi > nc {
					hi = nc
				}
				fillRows(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// Sim implements Measure. Values are bit-identical to the base measure.
func (k *Kernel) Sim(u, v hin.NodeID) float64 {
	if u == v {
		return 1
	}
	if uint32(u) >= uint32(k.n) || uint32(v) >= uint32(k.n) {
		return k.base.Sim(u, v) // out of the prepared domain: delegate
	}
	a, b := k.class[u], k.class[v]
	if a > b {
		a, b = b, a
	}
	if k.dense != nil {
		return k.dense[k.rowOff[a]+int64(b)]
	}
	return k.memoSim(a, b, u, v)
}

// memoSim serves class pair (a,b) from the striped memo cache, computing
// the value from the actual arguments on a miss. Any member pair of the
// classes yields the same bits, so caching by class is exact.
func (k *Kernel) memoSim(a, b int32, u, v hin.NodeID) float64 {
	key := pairkey.Key(hin.NodeID(a), hin.NodeID(b))
	sh := &k.memo.shards[pairkey.Shard(key, kernelShardBits)]
	sh.mu.RLock()
	s, ok := sh.vals[key]
	sh.mu.RUnlock()
	if ok {
		k.hits.Inc()
		return s
	}
	k.misses.Inc()
	s = k.base.Sim(u, v)
	sh.mu.Lock()
	sh.vals[key] = s
	sh.mu.Unlock()
	return s
}

// Name implements Measure.
func (k *Kernel) Name() string { return k.base.Name() + "+kernel" }

// Base returns the wrapped measure.
func (k *Kernel) Base() Measure { return k.base }

// DenseMode reports whether the full class-pair matrix is materialized
// (Sim is then a lock-free array read — the planner's cost model treats
// semantic probes as free).
func (k *Kernel) DenseMode() bool { return k.dense != nil }

// Mode reports "dense" or "memo".
func (k *Kernel) Mode() string {
	if k.DenseMode() {
		return "dense"
	}
	return "memo"
}

func (k *Kernel) modeCode() int {
	if k.DenseMode() {
		return 1
	}
	return 2
}

// NumClasses reports the distinct concept classes after leaf collapsing.
func (k *Kernel) NumClasses() int { return k.nClasses }

// MemoryBytes reports the kernel's storage: the node-to-class map plus
// the dense matrix or the memoized entries (map overhead approximated
// at 2x, as for the SO cache).
func (k *Kernel) MemoryBytes() int64 {
	m := int64(len(k.class))*4 + int64(len(k.rowOff))*8 + int64(len(k.dense))*8
	if k.memo != nil {
		for i := range k.memo.shards {
			sh := &k.memo.shards[i]
			sh.mu.RLock()
			m += int64(len(sh.vals)) * 32
			sh.mu.RUnlock()
		}
	}
	return m
}
