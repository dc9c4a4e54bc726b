package walk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"semsim/internal/hin"
	"semsim/internal/obs"
)

// Lazy (demand-paged) walk index.
//
// OpenLazy reads only the v3 header and offset directory, then serves
// Walk/Meet/View by decoding individual blocks on first touch into a
// striped LRU cache with a byte budget — so an index file far larger
// than RAM answers queries, paying one ReadAt + varint decode per cold
// block and nothing per warm one. The decoded data is bit-identical to
// a full Load, which the conformance tests assert.
//
// Three layers answer a block lookup, cheapest first:
//
//	overlay — blocks this epoch materialized in memory (Refresh rewrote
//	          them, or they cover nodes newer than the file). Immutable,
//	          shared structurally with descendant epochs.
//	cache   — decoded file blocks, 64-way striped (same pattern as
//	          SOCache), approximate-LRU via a global tick counter,
//	          evicted when decoded bytes exceed the budget.
//	file    — ReadAt the block's byte range (from the directory), CRC
//	          check, varint decode under the graph the file was built
//	          for.
//
// File blocks always decode under the *open-time* graph, even after
// Refresh advances the epoch's graph: a block stays file-backed only
// while every walk in it is untouched, and an untouched walk's bytes
// decode to the original steps only through the original in-neighbor
// lists. Touched blocks move to the overlay as plain int32 slabs, so
// they need no graph at all.

// DefaultCacheBytes is the decoded-block budget when LazyOptions leaves
// CacheBytes unset: big enough to hold the hot set of a skewed query
// mix, small enough to prove the point of lazy mode on one machine.
const DefaultCacheBytes = 64 << 20

// LazyOptions configure OpenLazy.
type LazyOptions struct {
	// CacheBytes caps the decoded bytes the block cache keeps resident
	// (<= 0 selects DefaultCacheBytes). The cap is enforced after each
	// insert, so the instantaneous footprint can briefly exceed it by
	// one block while the evictor catches up, and the most recently
	// inserted block is never the victim — a budget below one block
	// size degrades to single-block residency, not a failure.
	CacheBytes int64
	// Metrics, when non-nil, exports the cache behavior:
	// semsim_walk_cache_{hits,misses,evictions}_total counters and the
	// semsim_walk_cache_resident_bytes gauge. Nil disables (no cost).
	Metrics *obs.Registry
}

// block is one decoded block: cnt nodes' walks and live lengths,
// walk-major within node. Immutable once published.
type block struct {
	walks []int32
	lens  []int32
}

func (b *block) bytes() int64 {
	return int64(len(b.walks))*4 + int64(len(b.lens))*4
}

const cacheShards = 64

type cacheEntry struct {
	blk  *block
	tick atomic.Int64
}

type cacheShard struct {
	mu sync.RWMutex
	m  map[int]*cacheEntry
}

// blockCache is the striped LRU over decoded file blocks. Hits take a
// shard RLock plus two atomic bumps; inserts take the shard lock and
// then evict globally-oldest entries (cold path) until the byte budget
// holds again.
type blockCache struct {
	shards    [cacheShards]cacheShard
	clock     atomic.Int64
	resident  atomic.Int64
	budget    int64
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	residentG *obs.Gauge
}

func newBlockCache(budget int64, m *obs.Registry) *blockCache {
	c := &blockCache{
		budget:    budget,
		hits:      m.Counter("semsim_walk_cache_hits_total", "lazy walk-block cache hits"),
		misses:    m.Counter("semsim_walk_cache_misses_total", "lazy walk-block cache misses (block decoded from file)"),
		evictions: m.Counter("semsim_walk_cache_evictions_total", "lazy walk-block cache evictions"),
		residentG: m.Gauge("semsim_walk_cache_resident_bytes", "decoded bytes resident in the lazy walk-block cache"),
	}
	for i := range c.shards {
		c.shards[i].m = make(map[int]*cacheEntry)
	}
	return c
}

func (c *blockCache) get(id int) *block {
	s := &c.shards[id&(cacheShards-1)]
	s.mu.RLock()
	e := s.m[id]
	s.mu.RUnlock()
	if e == nil {
		return nil
	}
	e.tick.Store(c.clock.Add(1))
	c.hits.Inc()
	return e.blk
}

// insert publishes a freshly decoded block and trims the cache back to
// budget. If another goroutine won the decode race, its copy is kept
// and returned (both decodes of the same bytes are identical, so either
// is fine — keeping the first avoids double-counting resident bytes).
func (c *blockCache) insert(id int, blk *block) *block {
	s := &c.shards[id&(cacheShards-1)]
	s.mu.Lock()
	if e, ok := s.m[id]; ok {
		s.mu.Unlock()
		e.tick.Store(c.clock.Add(1))
		return e.blk
	}
	e := &cacheEntry{blk: blk}
	e.tick.Store(c.clock.Add(1))
	s.m[id] = e
	s.mu.Unlock()
	r := c.resident.Add(blk.bytes())
	c.residentG.Set(r)
	c.evictTo(c.budget, id)
	return blk
}

// evictTo removes globally-oldest entries until resident <= budget,
// never evicting keep (the block the caller just inserted and is about
// to read). Readers that already hold an evicted *block keep a valid
// reference — eviction only drops the cache's pointer.
func (c *blockCache) evictTo(budget int64, keep int) {
	for c.resident.Load() > budget {
		victimShard := -1
		victimID := 0
		victimTick := int64(1<<63 - 1)
		for si := range c.shards {
			s := &c.shards[si]
			s.mu.RLock()
			for id, e := range s.m {
				if id == keep {
					continue
				}
				if t := e.tick.Load(); t < victimTick {
					victimTick, victimShard, victimID = t, si, id
				}
			}
			s.mu.RUnlock()
		}
		if victimShard < 0 {
			return // nothing evictable (only keep remains)
		}
		s := &c.shards[victimShard]
		s.mu.Lock()
		e, ok := s.m[victimID]
		if ok {
			delete(s.m, victimID)
		}
		s.mu.Unlock()
		if ok {
			r := c.resident.Add(-e.blk.bytes())
			c.residentG.Set(r)
			c.evictions.Inc()
		}
	}
}

// lazyFile is the open v3 file plus everything needed to decode any
// block of it. It is shared (refcounted) across the epochs a Refresh
// chain creates, so they all hit one cache and one file handle.
type lazyFile struct {
	src    io.ReaderAt
	closer io.Closer // nil when the caller owns the handle
	g      *hin.Graph
	n0     int // node count at open; file blocks never cover more
	nw     int
	stride int
	bn     int // blockNodes
	offs   []uint64
	cache  *blockCache

	refs       atomic.Int64
	decodeErrs atomic.Int64
	lastErr    atomic.Value // error
	// decodeErrCtr mirrors decodeErrs into the metrics registry
	// (semsim_walk_decode_errors_total) so lazy-path corruption is
	// visible to scraping and alerting, not just the DecodeErrors
	// method. Nil when metrics are off.
	decodeErrCtr *obs.Counter
}

// readBlock fetches and decodes file block b (cold path).
func (f *lazyFile) readBlock(b int) (*block, error) {
	off, end := f.offs[b], f.offs[b+1]
	if end < off+8 {
		return nil, fmt.Errorf("walk: block %d: corrupt directory extent [%d,%d)", b, off, end)
	}
	lo := b * f.bn
	hi := lo + f.bn
	if hi > f.n0 {
		hi = f.n0
	}
	cnt := hi - lo
	plen := end - off - 8
	if plen > maxBlockPayload(cnt, f.nw, f.stride) {
		return nil, fmt.Errorf("walk: block %d: oversized payload (%d bytes for %d nodes)", b, plen, cnt)
	}
	if plen < uint64(cnt)*uint64(f.nw) {
		return nil, fmt.Errorf("walk: block %d: truncated varint stream (%d bytes for %d walks)",
			b, plen, cnt*f.nw)
	}
	buf := make([]byte, end-off)
	if _, err := f.src.ReadAt(buf, int64(off)); err != nil {
		return nil, fmt.Errorf("walk: block %d: read: %w", b, err)
	}
	if got := uint64(binary.LittleEndian.Uint32(buf[0:4])); got != plen {
		return nil, fmt.Errorf("walk: block %d: stored payload length %d disagrees with directory (%d)", b, got, plen)
	}
	payload := buf[8:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(buf[4:8]); got != want {
		return nil, fmt.Errorf("walk: block %d: checksum mismatch (stored %08x, computed %08x): file corrupt",
			b, want, got)
	}
	blk := &block{
		walks: make([]int32, cnt*f.nw*f.stride),
		lens:  make([]int32, cnt*f.nw),
	}
	pos := 0
	for v := lo; v < hi; v++ {
		base := (v - lo) * f.nw
		var err error
		pos, err = decodeNodeV3(payload, pos, f.g, hin.NodeID(v), f.nw, f.stride,
			blk.walks[base*f.stride:(base+f.nw)*f.stride], blk.lens[base:base+f.nw])
		if err != nil {
			return nil, fmt.Errorf("walk: block %d: %w", b, err)
		}
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("walk: block %d: %d trailing bytes after last walk", b, len(payload)-pos)
	}
	return blk, nil
}

func (f *lazyFile) close() error {
	if f.refs.Add(-1) != 0 {
		return nil
	}
	if f.closer != nil {
		return f.closer.Close()
	}
	return nil
}

// lazyStore is one epoch's view over a lazyFile: the epoch's node count
// (which may exceed the file's after growth) plus the overlay of blocks
// this epoch chain rewrote.
type lazyStore struct {
	f       *lazyFile
	n       int
	nw      int
	stride  int
	bn      int
	overlay map[int]*block // immutable after construction
	// overlayBytes is the decoded size of the overlay, precomputed so
	// MemoryBytes stays O(1).
	overlayBytes int64
	closed       atomic.Bool
}

// view returns node v's walks, decoding v's block if it is cold, and
// charges the block-cache outcome to co (nil co disables the
// accounting). Overlay blocks are plain resident memory — neither the
// cache counters nor the per-query cost count them. A decode failure
// (I/O error or corruption discovered mid-serve) cannot surface an
// error on the query path, so it degrades to a stopped-at-origin view —
// walks of length 1 never meet anything, so the node scores zero
// against all others — while the error is counted and kept for
// DecodeErrors/LastDecodeErr.
func (ls *lazyStore) view(v hin.NodeID, co *obs.Cost) NodeView {
	b := int(v) / ls.bn
	blk := ls.overlay[b]
	if blk == nil {
		if blk = ls.f.cache.get(b); blk != nil {
			if co != nil {
				co.BlockHits++
			}
		} else {
			ls.f.cache.misses.Inc()
			fresh, err := ls.f.readBlock(b)
			if err != nil {
				ls.f.decodeErrs.Add(1)
				ls.f.decodeErrCtr.Inc()
				ls.f.lastErr.Store(err)
				return stoppedView(v, ls.nw, ls.stride)
			}
			if co != nil {
				co.BlockMisses++
				co.BytesDecoded += fresh.bytes()
			}
			blk = ls.f.cache.insert(b, fresh)
		}
	}
	base := (int(v) - b*ls.bn) * ls.nw
	return NodeView{
		walks:  blk.walks[base*ls.stride : (base+ls.nw)*ls.stride],
		lens:   blk.lens[base : base+ls.nw],
		stride: ls.stride,
	}
}

// stoppedView is the degraded answer for an unreadable block: every
// walk is [v, Stop, Stop, ...] with live length 1.
func stoppedView(v hin.NodeID, nw, stride int) NodeView {
	walks := make([]int32, nw*stride)
	lens := make([]int32, nw)
	for i := range walks {
		walks[i] = Stop
	}
	for i := 0; i < nw; i++ {
		walks[i*stride] = int32(v)
		lens[i] = 1
	}
	return NodeView{walks: walks, lens: lens, stride: stride}
}

func (ls *lazyStore) memoryBytes() int64 {
	return ls.f.cache.resident.Load() + ls.overlayBytes + int64(len(ls.f.offs))*8
}

func (ls *lazyStore) close() error {
	if ls.closed.Swap(true) {
		return nil
	}
	return ls.f.close()
}

// DecodeErrors reports how many lazy block decodes have failed since
// open (0 for resident indexes). A nonzero value means some queries
// were answered with degraded (stopped) walks; LastDecodeErr has the
// most recent cause.
func (ix *Index) DecodeErrors() int64 {
	if ix.lazy == nil {
		return 0
	}
	return ix.lazy.f.decodeErrs.Load()
}

// LastDecodeErr returns the most recent lazy decode failure, or nil.
func (ix *Index) LastDecodeErr() error {
	if ix.lazy == nil {
		return nil
	}
	if err, ok := ix.lazy.f.lastErr.Load().(error); ok {
		return err
	}
	return nil
}

// CacheResidentBytes reports the decoded bytes currently held by the
// lazy block cache (0 for resident indexes). Tests use it to assert the
// budget holds; operators get the same number as the
// semsim_walk_cache_resident_bytes gauge.
func (ix *Index) CacheResidentBytes() int64 {
	if ix.lazy == nil {
		return 0
	}
	return ix.lazy.f.cache.resident.Load()
}

// OpenLazy opens a v3 walk file for demand-paged serving: only the
// header and block directory are read up front (O(numBlocks) memory);
// walks decode per block on first touch into a budgeted cache. src must
// stay valid for the life of the index (and of every index Refresh
// derives from it); if src is also an io.Closer, the final Close of the
// epoch chain closes it. size is the total file length, used to locate
// the directory at the tail.
//
// Only format v3 supports lazy opening — v1/v2 files have no block
// structure; convert them first (`semsim convert`).
func OpenLazy(src io.ReaderAt, size int64, g *hin.Graph, opts LazyOptions) (*Index, error) {
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = DefaultCacheBytes
	}
	hdr := make([]byte, v3HeaderBytes)
	if _, err := src.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("walk: reading header: %w", err)
	}
	if string(hdr[:4]) != indexMagic {
		return nil, fmt.Errorf("walk: bad magic %q", hdr[:4])
	}
	word := func(i int) uint32 { return binary.LittleEndian.Uint32(hdr[4+4*i:]) }
	if v := word(0); v != FormatV3 {
		return nil, fmt.Errorf("walk: lazy open requires format version %d, file is version %d (run `semsim convert`)",
			FormatV3, v)
	}
	n, nw, t, edges := int(word(1)), int(word(2)), int(word(3)), int(word(4))
	bn, nb := int(word(5)), int(word(6))
	if err := checkDims(g, n, nw, t, edges); err != nil {
		return nil, err
	}
	if bn < 1 || nb != numBlocksFor(n, bn) {
		return nil, fmt.Errorf("walk: corrupt v3 header: blockNodes=%d numBlocks=%d for %d nodes", bn, nb, n)
	}
	dirLen := int64(nb+1)*8 + 4
	if size < v3HeaderBytes+dirLen {
		return nil, fmt.Errorf("walk: file too short (%d bytes) for %d-block directory", size, nb)
	}
	dir := make([]byte, dirLen)
	if _, err := src.ReadAt(dir, size-dirLen); err != nil {
		return nil, fmt.Errorf("walk: reading block directory: %w", err)
	}
	body, sum := dir[:dirLen-4], dir[dirLen-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(sum); got != want {
		return nil, fmt.Errorf("walk: block directory checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	offs := make([]uint64, nb+1)
	for i := range offs {
		offs[i] = binary.LittleEndian.Uint64(body[i*8:])
	}
	if offs[0] != v3HeaderBytes || offs[nb] != uint64(size-dirLen) {
		return nil, fmt.Errorf("walk: corrupt block directory (spans [%d,%d), file body is [%d,%d))",
			offs[0], offs[nb], v3HeaderBytes, size-dirLen)
	}
	for i := 0; i < nb; i++ {
		if offs[i+1] < offs[i]+8 {
			return nil, fmt.Errorf("walk: corrupt block directory (entry %d: extent [%d,%d))", i, offs[i], offs[i+1])
		}
	}
	f := &lazyFile{
		src:    src,
		g:      g,
		n0:     n,
		nw:     nw,
		stride: t + 1,
		bn:     bn,
		offs:   offs,
		cache:  newBlockCache(opts.CacheBytes, opts.Metrics),
		decodeErrCtr: opts.Metrics.Counter("semsim_walk_decode_errors_total",
			"lazy walk-block decodes that failed (queries served degraded stopped walks)"),
	}
	if c, ok := src.(io.Closer); ok {
		f.closer = c
	}
	f.refs.Store(1)
	return &Index{
		g: g, n: n, nw: nw, t: t, stride: t + 1,
		lazy: &lazyStore{f: f, n: n, nw: nw, stride: t + 1, bn: bn, overlay: map[int]*block{}},
	}, nil
}

// OpenLazyFile is OpenLazy over a file path; the returned index owns
// the handle and releases it on the epoch chain's final Close.
func OpenLazyFile(path string, g *hin.Graph, opts LazyOptions) (*Index, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := fh.Stat()
	if err != nil {
		fh.Close()
		return nil, err
	}
	ix, err := OpenLazy(fh, st.Size(), g, opts)
	if err != nil {
		fh.Close()
		return nil, err
	}
	return ix, nil
}

// refreshLazy is Refresh for a lazy index: instead of copying the whole
// slab it decodes each block once, and only blocks containing a cut (or
// new nodes) are materialized into the successor's overlay — untouched
// blocks keep being served from the file through the shared cache. The
// resample streams are identical to the resident path, so both
// residency modes refresh to bit-identical indexes.
func (ix *Index) refreshLazy(newG *hin.Graph, changed []hin.NodeID, seed int64) (*Index, *RefreshStats, error) {
	ls := ix.lazy
	n2 := newG.NumNodes()
	if n2 < ix.n {
		return nil, nil, fmt.Errorf("walk: refresh cannot remove nodes (%d -> %d); rebuild", ix.n, n2)
	}
	isChanged := make([]bool, ix.n)
	for _, v := range changed {
		if int(v) < 0 || int(v) >= n2 {
			return nil, nil, fmt.Errorf("walk: changed node %d out of range", v)
		}
		if int(v) < ix.n {
			isChanged[v] = true
		}
	}

	st := &RefreshStats{Touched: make([]bool, n2)}
	overlay := make(map[int]*block, len(ls.overlay))
	for k, v := range ls.overlay {
		overlay[k] = v
	}
	nw, stride, t, bn := ix.nw, ix.stride, ix.t, ls.bn
	nbNew := numBlocksFor(n2, bn)
	for b := 0; b < nbNew; b++ {
		lo := b * bn
		hi := lo + bn
		if hi > n2 {
			hi = n2
		}
		// Nodes of this block that existed in the old epoch: [lo, oldHi).
		// A block wholly past the old node count has none.
		oldHi := hi
		if oldHi > ix.n {
			oldHi = ix.n
		}
		if oldHi < lo {
			oldHi = lo
		}
		var src *block
		if lo < ix.n {
			// Decode through the normal chain; a decode failure here is a
			// hard error (refusing the commit beats silently publishing an
			// epoch built on degraded walks).
			if src = overlay[b]; src == nil {
				if src = ls.f.cache.get(b); src == nil {
					var err error
					if src, err = ls.f.readBlock(b); err != nil {
						return nil, nil, err
					}
					src = ls.f.cache.insert(b, src)
				}
			}
		}
		// Find the cut position of every pre-existing walk in the block.
		cuts := []int(nil)
		for v := lo; v < oldHi; v++ {
			base := (v - lo) * nw
			for i := 0; i < nw; i++ {
				w := src.walks[(base+i)*stride : (base+i+1)*stride]
				for s := 0; s < int(src.lens[base+i]); s++ {
					if isChanged[w[s]] {
						cuts = append(cuts, (v-lo)*nw+i, s)
						break
					}
				}
			}
		}
		if len(cuts) == 0 && hi == oldHi {
			continue // block untouched and gains no nodes: stays file/overlay-backed as-is
		}
		cnt := hi - lo
		nb := &block{
			walks: make([]int32, cnt*nw*stride),
			lens:  make([]int32, cnt*nw),
		}
		if src != nil {
			copy(nb.walks, src.walks)
			copy(nb.lens, src.lens)
		}
		for c := 0; c < len(cuts); c += 2 {
			si, cut := cuts[c], cuts[c+1]
			v := lo + si/nw
			i := si % nw
			st.Resampled++
			st.Touched[v] = true
			w := nb.walks[si*stride : (si+1)*stride]
			rng := newRNG(seed, uint64(v)*1e9+uint64(i)+0x9e37)
			cur := hin.NodeID(w[cut])
			newLen := int32(stride)
			for s := cut + 1; s <= t; s++ {
				in := newG.InNeighbors(cur)
				if len(in) == 0 {
					newLen = int32(s)
					for ; s <= t; s++ {
						w[s] = Stop
					}
					break
				}
				cur = in[rng.intn(len(in))]
				w[s] = int32(cur)
			}
			nb.lens[si] = newLen
		}
		for v := oldHi; v < hi; v++ {
			st.Touched[v] = true
			st.NewNodes++
			base := (v - lo) * nw
			for i := 0; i < nw; i++ {
				rng := newRNG(seed, uint64(v)*1e9+uint64(i)+0x9e37)
				nb.lens[base+i] = sampleInto(newG, hin.NodeID(v),
					nb.walks[(base+i)*stride:(base+i+1)*stride], t, &rng)
			}
		}
		overlay[b] = nb
	}

	var overlayBytes int64
	for _, blk := range overlay {
		overlayBytes += blk.bytes()
	}
	ls.f.refs.Add(1)
	return &Index{
		g: newG, n: n2, nw: nw, t: t, stride: stride,
		lazy: &lazyStore{
			f: ls.f, n: n2, nw: nw, stride: stride, bn: bn,
			overlay: overlay, overlayBytes: overlayBytes,
		},
	}, st, nil
}
