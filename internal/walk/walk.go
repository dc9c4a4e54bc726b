// Package walk builds and stores the precomputed reversed-random-walk index
// underlying both SimRank's Monte-Carlo framework (Fogaras–Rácz) and
// SemSim's importance-sampling framework (Section 4 of the paper).
//
// For every node the index holds n_w independent walks, each truncated at t
// steps, drawn from the *uniform* distribution over in-neighbors — the
// proposal distribution Q the paper chooses for importance sampling. The
// index is the O(n * n_w * t) preprocessing artifact whose build time and
// storage Section 5.2 reports.
package walk

import (
	"fmt"
	"runtime"
	"sync"

	"semsim/internal/hin"
	"semsim/internal/obs"
)

// Stop marks a terminated walk position (the walk reached a node with no
// in-neighbors before step t).
const Stop int32 = -1

// Index is an immutable walk index. Once Build (or Load) returns, the
// index is never mutated: Walk, Meet, Graph and the size accessors are
// pure reads, so an Index may be shared freely across goroutines. Refresh
// does not mutate the receiver either — it returns a new Index. The only
// write APIs are the constructors themselves.
type Index struct {
	g      *hin.Graph
	n      int
	nw     int // walks per node
	t      int // steps per walk (truncation point)
	stride int // t+1 positions per walk, position 0 is the start node
	walks  []int32
	// lens[v*nw+i] is the number of live (non-Stop) positions of walk
	// (v, i), in [1, stride]. It lets Meet bound its scan up front and
	// drop the two per-step Stop comparisons from the hottest loop in
	// the repository (every Monte-Carlo query runs n_w Meet scans).
	lens []int32
	// lazy, when non-nil, replaces the resident slabs: walks/lens are
	// nil and every accessor decodes v3 blocks on demand through the
	// shared block cache (see lazy.go). All read APIs behave
	// identically in both modes.
	lazy *lazyStore
}

// Options configure Build.
type Options struct {
	// NumWalks is n_w, the number of walks per node (paper default 150).
	NumWalks int
	// Length is t, the truncation point (paper default 15).
	Length int
	// Seed makes the index deterministic.
	Seed int64
	// Parallel enables sharded building across CPUs; determinism is
	// preserved because every (node, walk) pair has its own RNG stream.
	Parallel bool
	// Metrics, when non-nil, records the sampling phase into the
	// registry: semsim_walk_build_seconds, semsim_walks_sampled_total
	// and the semsim_walk_index_bytes gauge. Nil disables (no cost).
	Metrics *obs.Registry
}

// DefaultNumWalks and DefaultLength are the paper's parameter settings
// (Section 5.1: "a set of 150 random walks of length 15").
const (
	DefaultNumWalks = 150
	DefaultLength   = 15
)

func (o *Options) fill() error {
	if o.NumWalks == 0 {
		o.NumWalks = DefaultNumWalks
	}
	if o.Length == 0 {
		o.Length = DefaultLength
	}
	if o.NumWalks < 1 || o.Length < 1 {
		return fmt.Errorf("walk: NumWalks (%d) and Length (%d) must be >= 1", o.NumWalks, o.Length)
	}
	return nil
}

// Build samples the index for g.
func Build(g *hin.Graph, opts Options) (*Index, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	buildLat := opts.Metrics.Histogram("semsim_walk_build_seconds",
		"wall time of one walk-sampling pass", nil)
	t0 := buildLat.Start()
	n := g.NumNodes()
	ix := &Index{
		g:      g,
		n:      n,
		nw:     opts.NumWalks,
		t:      opts.Length,
		stride: opts.Length + 1,
	}
	ix.walks = make([]int32, n*ix.nw*ix.stride)
	ix.lens = make([]int32, n*ix.nw)

	sample := func(lo, hi int) {
		for v := lo; v < hi; v++ {
			for i := 0; i < ix.nw; i++ {
				rng := newRNG(opts.Seed, uint64(v)*1e9+uint64(i))
				ix.sampleWalk(hin.NodeID(v), i, &rng)
			}
		}
	}

	if opts.Parallel && n > 1 {
		workers := runtime.GOMAXPROCS(0)
		if workers > n {
			workers = n
		}
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				sample(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	} else {
		sample(0, n)
	}
	buildLat.ObserveSince(t0)
	opts.Metrics.Counter("semsim_walks_sampled_total",
		"random walks drawn across all index builds").Add(int64(n) * int64(ix.nw))
	opts.Metrics.Gauge("semsim_walk_index_bytes",
		"storage of the most recently built walk index").Set(ix.MemoryBytes())
	return ix, nil
}

// sampleWalk draws one uniform reversed walk from v into slot i.
func (ix *Index) sampleWalk(v hin.NodeID, i int, rng *rng) {
	si := int(v)*ix.nw + i
	w := ix.walks[si*ix.stride : (si+1)*ix.stride]
	ix.lens[si] = sampleInto(ix.g, v, w, ix.t, rng)
}

// sampleInto draws one uniform reversed walk from v into w (which must
// have length t+1), filling the tail with Stop, and returns the live
// length. It is the sampling core shared by Build, Refresh and
// BuildStreaming — all three must draw identical walks for identical
// RNG streams, so there is exactly one copy of this loop.
func sampleInto(g *hin.Graph, v hin.NodeID, w []int32, t int, rng *rng) int32 {
	w[0] = int32(v)
	cur := v
	for s := 1; s <= t; s++ {
		in := g.InNeighbors(cur)
		if len(in) == 0 {
			l := int32(s)
			for ; s <= t; s++ {
				w[s] = Stop
			}
			return l
		}
		cur = in[rng.intn(len(in))]
		w[s] = int32(cur)
	}
	return int32(t + 1)
}

// fillLens derives the per-walk live-length table from the walk storage.
// Build maintains lens as it samples; Load and Refresh reconstruct walks
// wholesale and call this afterwards.
func (ix *Index) fillLens() {
	ix.lens = make([]int32, ix.n*ix.nw)
	for si := range ix.lens {
		w := ix.walks[si*ix.stride : (si+1)*ix.stride]
		l := int32(ix.stride)
		for s, node := range w {
			if node == Stop {
				l = int32(s)
				break
			}
		}
		ix.lens[si] = l
	}
}

func (ix *Index) slot(v hin.NodeID, i int) []int32 {
	base := (int(v)*ix.nw + i) * ix.stride
	return ix.walks[base : base+ix.stride]
}

// NodeView is a borrowed view of one node's walks: n_w walks of stride
// positions each, plus their live lengths. For a resident index the
// view aliases the index slabs directly (zero allocation); for a lazy
// index it pins the decoded block, so holding a view keeps its data
// valid even if the block is evicted from the cache concurrently.
//
// Fetch a view once per query node and read all n_w walks through it —
// that is one cache probe instead of n_w in lazy mode, and identical
// code generation to the old direct-slab indexing in resident mode.
type NodeView struct {
	walks  []int32 // nw walks, walk-major, stride positions each
	lens   []int32 // nw live lengths
	stride int
}

// Walk returns the i-th walk of the view: positions 0..t, Stop-padded.
func (nv NodeView) Walk(i int) []int32 {
	return nv.walks[i*nv.stride : (i+1)*nv.stride]
}

// Len reports the number of live (non-Stop) positions of walk i.
func (nv NodeView) Len(i int) int { return int(nv.lens[i]) }

// View returns the walk view of node v. On a lazy index the
// block-cache outcome (a hit, or a miss plus the bytes decoded) is
// charged to co; a nil co disables the accounting, and a resident index
// has nothing to charge.
func (ix *Index) View(v hin.NodeID, co *obs.Cost) NodeView {
	if ix.lazy != nil {
		return ix.lazy.view(v, co)
	}
	base := int(v) * ix.nw
	return NodeView{
		walks:  ix.walks[base*ix.stride : (base+ix.nw)*ix.stride],
		lens:   ix.lens[base : base+ix.nw],
		stride: ix.stride,
	}
}

// MeetViews is Meet over two already-fetched node views: the first
// offset where walk i of both views is at the same node. Queries that
// score many walks of the same node pair fetch the two views once and
// call this per walk, keeping the lazy path to one cache probe per
// node instead of one per step.
//
// The scan is bounded by the shorter walk's live length (precomputed at
// build time), so the loop body is a single equality comparison — no
// per-step Stop checks. Both walks are sliced to that length first, so
// the compiler drops the per-step bounds checks as well.
func MeetViews(a, b NodeView, i int) (tau int, ok bool) {
	lim := a.lens[i]
	if l := b.lens[i]; l < lim {
		lim = l
	}
	wa := a.walks[i*a.stride:][:lim]
	wb := b.walks[i*b.stride:][:len(wa)]
	for s, x := range wa {
		if x == wb[s] {
			return s, true
		}
	}
	return 0, false
}

// Graph returns the graph the index was built over.
func (ix *Index) Graph() *hin.Graph { return ix.g }

// NumWalks reports n_w.
func (ix *Index) NumWalks() int { return ix.nw }

// Length reports t.
func (ix *Index) Length() int { return ix.t }

// Walk returns the i-th walk from v: positions 0..t where position 0 is v
// and Stop marks termination. The slice aliases internal storage (or a
// pinned decoded block in lazy mode). Callers reading several walks of
// the same node should fetch one View instead.
func (ix *Index) Walk(v hin.NodeID, i int) []int32 {
	if ix.lazy != nil {
		return ix.lazy.view(v, nil).Walk(i)
	}
	return ix.slot(v, i)
}

// Meet returns the first-meeting offset tau of the i-th coupled walk from
// u and v: the smallest offset where both walks are at the same node
// (Section 4.1). ok is false if they never meet within t steps.
//
// Offset 0 meets only when u == v, matching c^0 = 1 and sim(u,u) = 1.
func (ix *Index) Meet(u, v hin.NodeID, i int) (tau int, ok bool) {
	return MeetViews(ix.View(u, nil), ix.View(v, nil), i)
}

// WalkLen reports the number of live (non-Stop) positions of walk (v, i),
// in [1, Length()+1]. Callers iterating a walk can bound their loop with
// it instead of testing each step against Stop.
func (ix *Index) WalkLen(v hin.NodeID, i int) int {
	if ix.lazy != nil {
		return ix.lazy.view(v, nil).Len(i)
	}
	return int(ix.lens[int(v)*ix.nw+i])
}

// MemoryBytes estimates the index storage, reported by the preprocessing
// experiment. For a lazy index this is the cache budget plus overlay —
// the amount of walk data the process is allowed to keep resident — not
// the (larger) decoded size of the whole file.
func (ix *Index) MemoryBytes() int64 {
	if ix.lazy != nil {
		return ix.lazy.memoryBytes()
	}
	return int64(len(ix.walks))*4 + int64(len(ix.lens))*4
}

// Lazy reports whether the index serves from the demand-paged block
// cache (OpenLazy) rather than fully-resident slabs.
func (ix *Index) Lazy() bool { return ix.lazy != nil }

// Close releases resources held by a lazy index (the underlying file
// handle). It is a no-op for resident indexes and for lazy indexes that
// share their file with a newer epoch (only the final Close of a
// lazyFile closes the handle).
func (ix *Index) Close() error {
	if ix.lazy != nil {
		return ix.lazy.close()
	}
	return nil
}
