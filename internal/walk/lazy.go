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
// OpenLazy reads only the v3 header and offset directory and returns an
// index whose block table is empty: every block decodes on first touch
// into a striped LRU cache with a byte budget — so an index file far
// larger than RAM answers queries, paying one ReadAt + varint decode per
// cold block and nothing per warm one. The decoded data is bit-identical
// to a full Load, which the conformance tests assert.
//
// Three layers answer a block lookup, cheapest first:
//
//	table — blocks this index holds in memory (Refresh rewrote them, or
//	        they cover nodes newer than the file). Immutable, shared
//	        with descendant epochs.
//	cache — decoded file blocks, 64-way striped (same pattern as
//	        SOCache), approximate-LRU via a global tick counter,
//	        evicted when decoded bytes exceed the budget.
//	file  — ReadAt the block's byte range (from the directory), then
//	        decodeBlock: CRC check and varint decode under the graph
//	        the file was built for.
//
// File blocks always decode under the *open-time* graph, even after
// Refresh advances the epoch's graph: a block stays file-backed only
// while every walk in it is untouched, and an untouched walk's bytes
// decode to the original steps only through the original in-neighbor
// lists. Touched blocks move into the table as plain int32 slabs, so
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

// lazyFile is the open v3 file behind a lazy index's nil blocks, plus
// everything needed to decode any of them. Every index of a Refresh
// chain shares it, so they all hit one cache and one file handle.
type lazyFile struct {
	src    io.ReaderAt
	closer io.Closer // nil when the caller owns the handle
	closed atomic.Bool
	// g and layout are the open-time graph and geometry: a block stays
	// file-backed only while every walk in it is untouched, and an
	// untouched walk's bytes decode to the original steps only through
	// the original in-neighbor lists.
	g *hin.Graph
	layout
	offs  []uint64
	cache *blockCache

	decodeErrs atomic.Int64
	lastErr    atomic.Value // error
	// decodeErrCtr mirrors decodeErrs into the metrics registry
	// (semsim_walk_decode_errors_total) so lazy-path corruption is
	// visible to scraping and alerting, not just the DecodeErrors
	// method. Nil when metrics are off.
	decodeErrCtr *obs.Counter
}

// fetch returns file block b through the cache, decoding it on a miss
// (cold path), and charges the outcome to co; a nil co disables the
// accounting.
func (f *lazyFile) fetch(b int, co *obs.Cost) (*block, error) {
	if blk := f.cache.get(b); blk != nil {
		if co != nil {
			co.BlockHits++
		}
		return blk, nil
	}
	f.cache.misses.Inc()
	off, end := f.offs[b], f.offs[b+1]
	plen := end - off - 8
	blk, err := f.decodeBlock(f.g, b, plen, func() ([]byte, uint32, error) {
		buf := make([]byte, end-off)
		if _, err := f.src.ReadAt(buf, int64(off)); err != nil {
			return nil, 0, fmt.Errorf("read: %w", err)
		}
		if got := uint64(binary.LittleEndian.Uint32(buf[0:4])); got != plen {
			return nil, 0, fmt.Errorf("stored payload length %d disagrees with directory (%d)", got, plen)
		}
		return buf[8:], binary.LittleEndian.Uint32(buf[4:8]), nil
	})
	if err != nil {
		return nil, err
	}
	if co != nil {
		co.BlockMisses++
		co.BytesDecoded += blk.bytes()
	}
	return f.cache.insert(b, blk), nil
}

// fail counts a decode failure on the query path and keeps its cause.
func (f *lazyFile) fail(err error) {
	f.decodeErrs.Add(1)
	f.decodeErrCtr.Inc()
	f.lastErr.Store(err)
}

// memoryBytes is the cache's resident bytes plus the directory; 0 for
// a resident index (nil f).
func (f *lazyFile) memoryBytes() int64 {
	if f == nil {
		return 0
	}
	return f.cache.resident.Load() + int64(len(f.offs))*8
}

// close closes the handle the first time it is called; later calls,
// and calls on a nil f, are no-ops.
func (f *lazyFile) close() error {
	if f == nil || f.closer == nil || f.closed.Swap(true) {
		return nil
	}
	return f.closer.Close()
}

// DecodeErrors reports how many lazy block decodes have failed since
// open (0 for resident indexes). A nonzero value means some queries
// were answered with degraded (stopped) walks; LastDecodeErr has the
// most recent cause.
func (ix *Index) DecodeErrors() int64 {
	if ix.file == nil {
		return 0
	}
	return ix.file.decodeErrs.Load()
}

// LastDecodeErr returns the most recent lazy decode failure, or nil.
func (ix *Index) LastDecodeErr() error {
	if ix.file == nil {
		return nil
	}
	if err, ok := ix.file.lastErr.Load().(error); ok {
		return err
	}
	return nil
}

// CacheResidentBytes reports the decoded bytes currently held by the
// lazy block cache (0 for resident indexes). Tests use it to assert the
// budget holds; operators get the same number as the
// semsim_walk_cache_resident_bytes gauge.
func (ix *Index) CacheResidentBytes() int64 {
	if ix.file == nil {
		return 0
	}
	return ix.file.cache.resident.Load()
}

// OpenLazy opens a v3 walk file for demand-paged serving: only the
// header and block directory are read up front (O(numBlocks) memory);
// walks decode per block on first touch into a budgeted cache. src must
// stay valid for the life of the index and of every index Refresh
// derives from it; if src is also an io.Closer, the first Close on any
// index of that chain closes it. size is the total file length, used to
// locate the directory at the tail.
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
	ix := newIndex(g, n, nw, t, bn)
	ix.file = &lazyFile{
		src:    src,
		g:      g,
		layout: ix.layout,
		offs:   offs,
		cache:  newBlockCache(opts.CacheBytes, opts.Metrics),
		decodeErrCtr: opts.Metrics.Counter("semsim_walk_decode_errors_total",
			"lazy walk-block decodes that failed (queries served degraded stopped walks)"),
	}
	if c, ok := src.(io.Closer); ok {
		ix.file.closer = c
	}
	return ix, nil
}

// OpenLazyFile is OpenLazy over a file path; the returned index owns
// the handle, and Close on any index of its Refresh chain releases it.
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
