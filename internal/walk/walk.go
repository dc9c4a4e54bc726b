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
	"sync/atomic"

	"semsim/internal/hin"
	"semsim/internal/obs"
)

// Stop marks a terminated walk position (the walk reached a node with no
// in-neighbors before step t).
const Stop int32 = -1

// Index is an immutable walk index: a table of decoded blocks, each
// holding the walks of bn consecutive source nodes — the unit a v3 file
// stores. A resident index (Build, Load) holds every block in memory. A
// lazy index (OpenLazy) holds only the blocks its Refresh chain rewrote
// or added; every other entry is nil and decodes from the v3 file on
// demand, through a block cache with a byte budget shared by the chain.
// All read APIs behave identically either way.
//
// Once a constructor returns, the index is never mutated: Walk, Meet,
// View and the size accessors are pure reads, so an Index may be shared
// freely across goroutines. Refresh does not mutate the receiver either —
// it returns a new Index that shares every block it did not touch.
type Index struct {
	g *hin.Graph
	layout
	// blocks[b] holds nodes span(b); nil means "read from file".
	blocks []*block
	// memBytes is the decoded size of the non-nil blocks, precomputed so
	// MemoryBytes stays O(1).
	memBytes int64
	// file backs the nil blocks; nil for a resident index.
	file *lazyFile
}

// layout is how walks are cut into blocks: n source nodes with nw walks
// of stride = t+1 positions each (position 0 is the start node), bn
// nodes per block.
type layout struct {
	n, nw, t, stride, bn int
}

// span returns block b's node range [lo, hi).
func (l layout) span(b int) (lo, hi int) {
	lo = b * l.bn
	return lo, min(lo+l.bn, l.n)
}

// view returns node v's walks inside block b, which must hold it.
func (l layout) view(blk *block, b, v int) NodeView {
	base := (v - b*l.bn) * l.nw
	return NodeView{
		walks:  blk.walks[base*l.stride : (base+l.nw)*l.stride],
		lens:   blk.lens[base : base+l.nw],
		stride: l.stride,
	}
}

// block is one decoded block: its nodes' walks, walk-major within node,
// and their live lengths. lens[k] is the number of live (non-Stop)
// positions of walk k, in [1, stride]; it lets Meet bound its scan up
// front and drop the two per-step Stop comparisons from the hottest loop
// in the repository (every Monte-Carlo query runs n_w Meet scans).
// Immutable once published.
type block struct {
	walks []int32
	lens  []int32
}

// newBlock allocates a block for cnt nodes as one slab.
func newBlock(cnt, nw, stride int) *block {
	buf := make([]int32, cnt*nw*(stride+1))
	return &block{walks: buf[:cnt*nw*stride], lens: buf[cnt*nw*stride:]}
}

func (b *block) bytes() int64 {
	return int64(len(b.walks))*4 + int64(len(b.lens))*4
}

// newIndex returns an index over g with an empty table of bn-node blocks
// for its constructor to fill.
func newIndex(g *hin.Graph, n, nw, t, bn int) *Index {
	return &Index{
		g:      g,
		layout: layout{n: n, nw: nw, t: t, stride: t + 1, bn: bn},
		blocks: make([]*block, numBlocksFor(n, bn)),
	}
}

// tally records the decoded size of the table's blocks once it is full.
func (ix *Index) tally() *Index {
	ix.memBytes = 0
	for _, blk := range ix.blocks {
		if blk != nil {
			ix.memBytes += blk.bytes()
		}
	}
	return ix
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
	// registry: semsim_walk_build_seconds and semsim_walks_sampled_total.
	// Nil disables (no cost).
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

// Build samples the index for g, in blocks of DefaultBlockBytes.
func Build(g *hin.Graph, opts Options) (*Index, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	buildLat := opts.Metrics.Histogram("semsim_walk_build_seconds",
		"wall time of one walk-sampling pass", nil)
	t0 := buildLat.Start()
	n, nw, t := g.NumNodes(), opts.NumWalks, opts.Length
	ix := newIndex(g, n, nw, t, blockNodesFor(DefaultBlockBytes, nw, t+1))

	// Workers claim blocks from a shared counter; every (node, walk) pair
	// has its own RNG stream, so the result is independent of who
	// sampled which block.
	var next atomic.Int64
	sample := func() {
		for b := int(next.Add(1) - 1); b < len(ix.blocks); b = int(next.Add(1) - 1) {
			lo, hi := ix.span(b)
			blk := newBlock(hi-lo, nw, ix.stride)
			ix.sampleNodes(g, blk, lo, lo, hi, opts.Seed, 0)
			ix.blocks[b] = blk
		}
	}
	var wg sync.WaitGroup
	for w := 1; opts.Parallel && w < min(runtime.GOMAXPROCS(0), len(ix.blocks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sample()
		}()
	}
	sample()
	wg.Wait()
	buildLat.ObserveSince(t0)
	opts.Metrics.Counter("semsim_walks_sampled_total",
		"random walks drawn across all index builds").Add(int64(n) * int64(nw))
	return ix.tally(), nil
}

// sampleNodes is the per-block sampler: it draws the walks of nodes
// [from, hi) into blk, whose first node is lo. Walk (v, i) uses RNG
// stream v*1e9 + i + salt — salt 0 for Build and BuildStreaming, which
// must draw identical walks, refreshSalt for the nodes Refresh adds.
func (l layout) sampleNodes(g *hin.Graph, blk *block, lo, from, hi int, seed int64, salt uint64) {
	for v := from; v < hi; v++ {
		for i := 0; i < l.nw; i++ {
			k := (v-lo)*l.nw + i
			w := blk.walks[k*l.stride : (k+1)*l.stride]
			w[0] = int32(v)
			rng := newRNG(seed, uint64(v)*1e9+uint64(i)+salt)
			blk.lens[k] = sampleFrom(g, w, 0, &rng)
		}
	}
}

// sampleFrom continues walk w (of length t+1) from position from, whose
// node is already set: each later position is a uniform in-neighbor of
// the one before, and a node with no in-neighbors ends the walk, with
// the tail filled with Stop. It returns the live length. Sampling a new
// walk and resampling a walk from its cut both step through this loop,
// so identical RNG streams draw identical walks.
func sampleFrom(g *hin.Graph, w []int32, from int, rng *rng) int32 {
	cur := hin.NodeID(w[from])
	for s := from + 1; s < len(w); s++ {
		in := g.InNeighbors(cur)
		if len(in) == 0 {
			for k := s; k < len(w); k++ {
				w[k] = Stop
			}
			return int32(s)
		}
		cur = in[rng.intn(len(in))]
		w[s] = int32(cur)
	}
	return int32(len(w))
}

// NodeView is a borrowed view of one node's walks: n_w walks of stride
// positions each, plus their live lengths. It aliases the node's decoded
// block, so holding a view keeps its data valid even if a lazy index's
// cache evicts the block concurrently.
//
// Fetch a view once per query node and read all n_w walks through it —
// one block lookup (and on a lazy index one cache probe) instead of n_w.
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

// View returns the walk view of node v. When v's block is read from
// the file, the block-cache outcome (a hit, or a miss plus the bytes
// decoded) is charged to co; a nil co disables the accounting, and a
// block the table holds has nothing to charge.
//
// This is the read path of every query, so it reads the index fields
// directly (calling layout.view copies the layout) and takes the block
// and the offset in it from one 32-bit division.
func (ix *Index) View(v hin.NodeID, co *obs.Cost) NodeView {
	b, r := uint32(v)/uint32(ix.bn), uint32(v)%uint32(ix.bn)
	blk := ix.blocks[b]
	if blk == nil {
		return ix.fileView(v, int(b), co)
	}
	nw, stride := ix.nw, ix.stride
	base := int(r) * nw
	return NodeView{
		walks:  blk.walks[base*stride : (base+nw)*stride],
		lens:   blk.lens[base : base+nw],
		stride: stride,
	}
}

// fileView is View for a block read from the file. A decode failure (I/O
// error or corruption discovered mid-serve) cannot surface an error on
// the query path, so it degrades to a stopped-at-origin view — walks of
// length 1 never meet anything, so the node scores zero against all
// others — while the error is counted and kept for
// DecodeErrors/LastDecodeErr.
func (ix *Index) fileView(v hin.NodeID, b int, co *obs.Cost) NodeView {
	blk, err := ix.file.fetch(b, co)
	if err != nil {
		ix.file.fail(err)
		walks := make([]int32, ix.nw*ix.stride)
		lens := make([]int32, ix.nw)
		for i := range walks {
			walks[i] = Stop
		}
		for i := range lens {
			walks[i*ix.stride] = int32(v)
			lens[i] = 1
		}
		return NodeView{walks: walks, lens: lens, stride: ix.stride}
	}
	return ix.view(blk, b, int(v))
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
// and Stop marks termination. The slice aliases v's decoded block.
// Callers reading several walks of the same node should fetch one View
// instead.
func (ix *Index) Walk(v hin.NodeID, i int) []int32 { return ix.View(v, nil).Walk(i) }

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
func (ix *Index) WalkLen(v hin.NodeID, i int) int { return ix.View(v, nil).Len(i) }

// MemoryBytes estimates the walk data the index keeps in memory, as the
// preprocessing experiment reports it: the decoded blocks in its table,
// plus for a lazy index the block cache's resident bytes and the block
// directory — not the (larger) decoded size of the whole file.
func (ix *Index) MemoryBytes() int64 { return ix.memBytes + ix.file.memoryBytes() }

// Lazy reports whether the index reads blocks from a v3 file on demand
// (OpenLazy, and every index Refresh derives from one).
func (ix *Index) Lazy() bool { return ix.file != nil }

// Close closes the file behind a lazy index. Every index of a Refresh
// chain shares that file, so Close on any of them closes it for all:
// call it once the whole chain is done serving. A second Close, and
// Close on a resident index, is a no-op.
func (ix *Index) Close() error { return ix.file.close() }
