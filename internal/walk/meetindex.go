package walk

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"semsim/internal/hin"
)

// MeetIndex inverts a walk index by (walk, step, node): for every walk
// slot i, step s and node x it lists, in ascending order, the sources
// whose walk i is at x at step s. Algorithm 1 couples walk i of u only
// with walk i of another source, so keying the cells by walk as well
// lets a collision enumeration read exactly u's own n_w*(t+1) cells and
// every source it finds there is a coupled co-location. It turns the
// all-candidates scan of a single-source query into a collision lookup —
// the single-source/top-k optimization direction the paper's Section 7
// leaves as future work (following Fogaras–Rácz's fingerprint trick).
//
// Storage is 4*(n*n_w*(t+1)+1) bytes of offsets plus 4 bytes per live
// walk position; when every walk stays live for all t+1 positions the
// two halves are equal.
type MeetIndex struct {
	ix *Index
	// Cell (i*(t+1)+s)*n + x lists its sources at
	// entries[offsets[cell] : offsets[cell+1]].
	offsets []int32
	entries []hin.NodeID
}

// meetChunk is how many nodes' walk views a build worker holds at once.
// Within a chunk the worker goes walk by walk, so one walk's n*(t+1)
// counters stay in cache while the chunk's positions land in them; on a
// lazy index the chunk's views also pin their decoded blocks, so every
// block is fetched once per worker however small the cache budget.
const meetChunk = 512

// BuildMeetIndex inverts ix, splitting the walk slots across
// GOMAXPROCS workers. Every cell belongs to exactly one walk slot, so
// the workers write disjoint ranges and the result is byte-identical
// for any worker count.
func BuildMeetIndex(ix *Index) *MeetIndex {
	return buildMeetIndex(ix, runtime.GOMAXPROCS(0))
}

func buildMeetIndex(ix *Index, workers int) *MeetIndex {
	n, nw := ix.n, ix.nw
	walkCells := n * ix.stride
	m := &MeetIndex{ix: ix, offsets: make([]int32, nw*walkCells+1)}
	workers = max(1, min(workers, nw))

	// Count each cell's sources into its own offset slot, and each
	// walk's entries.
	walkEntries := make([]int32, nw)
	m.eachWalkRange(workers, func(lo, hi int) {
		m.scan(lo, hi, false)
		for i := lo; i < hi; i++ {
			var sum int32
			for _, k := range m.offsets[i*walkCells : (i+1)*walkCells] {
				sum += k
			}
			walkEntries[i] = sum
		}
	})
	walkBase := make([]int32, nw)
	var total int32
	for i, k := range walkEntries {
		walkBase[i] = total
		total += k
	}
	m.offsets[nw*walkCells] = total
	m.entries = make([]hin.NodeID, total)

	// Turn the counts into cell starts and fill with the starts as
	// cursors (sources arrive in ascending order). That leaves each slot
	// at its cell's end; shifting every walk's slots up by one cell
	// restores the starts.
	m.eachWalkRange(workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum := walkBase[i]
			cnt := m.offsets[i*walkCells : (i+1)*walkCells]
			for c, k := range cnt {
				cnt[c] = sum
				sum += k
			}
		}
		m.scan(lo, hi, true)
		for i := lo; i < hi; i++ {
			cur := m.offsets[i*walkCells : (i+1)*walkCells]
			copy(cur[1:], cur[:len(cur)-1])
			cur[0] = walkBase[i]
		}
	})
	return m
}

// eachWalkRange runs fn over contiguous walk-slot ranges, one per
// worker, and waits for all of them.
func (m *MeetIndex) eachWalkRange(workers int, fn func(lo, hi int)) {
	nw := m.ix.nw
	chunk := (nw + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < nw; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+chunk, nw))
	}
	wg.Wait()
}

// scan visits every live position of walk slots [lo, hi), sources
// ascending within each walk, and bumps the position's cell slot; with
// fill set it first files the source at the slot's value.
func (m *MeetIndex) scan(lo, hi int, fill bool) {
	ix := m.ix
	n := ix.n
	views := make([]NodeView, 0, meetChunk)
	for v0 := 0; v0 < n; v0 += meetChunk {
		views = views[:0]
		for v := v0; v < min(v0+meetChunk, n); v++ {
			views = append(views, ix.View(hin.NodeID(v), nil))
		}
		for i := lo; i < hi; i++ {
			base := i * ix.stride * n
			for j, vw := range views {
				w := vw.Walk(i)
				for s, l := 0, vw.Len(i); s < l; s++ {
					c := base + s*n + int(w[s])
					if fill {
						m.entries[m.offsets[c]] = hin.NodeID(v0 + j)
					}
					m.offsets[c]++
				}
			}
		}
	}
}

// Repair returns the meet index of newIx, the successor of the
// receiver's walk index (typically Index.Refresh's output, with touched
// its RefreshStats.Touched table; newIx may have more nodes). It
// validates that the two indexes are compatible and rebuilds: the
// walk-keyed build is a counting pass plus a fill over the walks,
// cheaper than patching every cell of the touched sources. The receiver
// is not mutated, so the old snapshot's meet index keeps serving.
func (m *MeetIndex) Repair(newIx *Index, touched []bool) (*MeetIndex, error) {
	old := m.ix
	if newIx.nw != old.nw || newIx.stride != old.stride {
		return nil, fmt.Errorf("walk: repair dimensions differ (nw %d->%d, stride %d->%d)",
			old.nw, newIx.nw, old.stride, newIx.stride)
	}
	if newIx.n < old.n || len(touched) != newIx.n {
		return nil, fmt.Errorf("walk: repair node count %d -> %d with %d touched flags",
			old.n, newIx.n, len(touched))
	}
	return BuildMeetIndex(newIx), nil
}

// At returns the sources whose walk i is at node x at step s, ascending
// (aliased, do not modify).
func (m *MeetIndex) At(i, s int, x hin.NodeID) []hin.NodeID {
	c := (i*m.ix.stride+s)*m.ix.n + int(x)
	return m.entries[m.offsets[c]:m.offsets[c+1]]
}

// Collision is a first-meeting event between the query's walks and
// another source's walks.
type Collision struct {
	Other hin.NodeID
	Walk  int32 // walk slot index (same for both sources by coupling)
	Tau   int   // first-meeting step
}

// collisionScratch is the pooled state of one enumeration and grouping:
// a seen flag and a group cursor per source, a bitmap of the sources
// present, and the ungrouped meetings. Flags, cursors and bitmap are all
// zero between uses.
type collisionScratch struct {
	seen   []bool
	cursor []int32
	met    []uint64
	raw    []Collision
}

var collisionPool = sync.Pool{New: func() any { return new(collisionScratch) }}

// Collisions enumerates, for the query node u, every coupled first
// meeting against every other source: for each walk slot i and the
// earliest step s where walk (v, i) visits the same node as walk (u, i).
// The result is sorted by Other, then Walk.
//
// It reads only u's own cells — one per live position of u's walks —
// so its cost is those n_w*(t+1) cell reads plus the co-locations found
// in them, rather than n * n_w walk scans.
func (m *MeetIndex) Collisions(u hin.NodeID) []Collision {
	return m.CollisionsAppend(nil, u)
}

// CollisionsAppend is Collisions appending into buf (which may be nil):
// MeetingsAppend over every walk slot, then GroupBySource. Passing a
// retained buffer makes repeated enumerations allocation-free once the
// buffer has grown to the query's collision count.
func (m *MeetIndex) CollisionsAppend(buf []Collision, u hin.NodeID) []Collision {
	n := m.ix.n
	sc := collisionPool.Get().(*collisionScratch)
	if len(sc.seen) < n {
		sc.seen = make([]bool, n)
	}
	sc.raw = m.MeetingsAppend(sc.raw[:0], u, m.ix.View(u, nil), 0, m.ix.nw, sc.seen)
	buf = sc.group(buf, sc.raw, n)
	collisionPool.Put(sc)
	return buf
}

// MeetingsAppend appends to buf the first meetings of u's walk slots
// lo..hi-1, ungrouped: by walk, then step, then ascending source within
// each cell. vu is u's view of the meet index's walk index. seen is a
// per-source scratch of at least NumNodes entries, all false on entry;
// it dedupes each walk's meetings and is all false again on return.
//
// Walk ranges are independent, so disjoint ranges can be enumerated
// concurrently (each with its own seen); concatenating the ranges in
// walk order and grouping them with GroupBySource gives Collisions(u).
func (m *MeetIndex) MeetingsAppend(buf []Collision, u hin.NodeID, vu NodeView, lo, hi int, seen []bool) []Collision {
	n, stride := m.ix.n, m.ix.stride
	// A walk's cells lie far apart in the index, so each is a cache
	// miss. Reading a run of cell bounds, then the cells' sources, with
	// no data-dependent branch in between, lets the misses overlap;
	// the deduplication runs after, on the gathered copy.
	var cells [16][2]int32
	for i := lo; i < hi; i++ {
		start := len(buf)
		w, l := vu.Walk(i), vu.Len(i)
		for s0 := 0; s0 < l; s0 += len(cells) {
			k := min(l-s0, len(cells))
			base := (i*stride + s0) * n
			for s := range k {
				c := base + s*n + int(w[s0+s])
				cells[s] = [2]int32{m.offsets[c], m.offsets[c+1]}
			}
			for s := range k {
				for _, o := range m.entries[cells[s][0]:cells[s][1]] {
					buf = append(buf, Collision{Other: o, Walk: int32(i), Tau: s0 + s})
				}
			}
		}
		// Steps ascend, so the first time a source shows up in walk
		// i's cells is its first meeting in walk i.
		kept := start
		for _, col := range buf[start:] {
			if seen[col.Other] || col.Other == u {
				continue
			}
			seen[col.Other] = true
			buf[kept] = col
			kept++
		}
		buf = buf[:kept]
		for _, col := range buf[start:] {
			seen[col.Other] = false
		}
	}
	return buf
}

// GroupBySource appends raw's collisions to buf grouped by ascending
// source, keeping raw's order within each source (a stable counting
// sort); every source must be below n. Grouping MeetingsAppend's walk-
// ordered output leaves each source's meetings in ascending walk order.
func GroupBySource(buf, raw []Collision, n int) []Collision {
	sc := collisionPool.Get().(*collisionScratch)
	buf = sc.group(buf, raw, n)
	collisionPool.Put(sc)
	return buf
}

func (sc *collisionScratch) group(buf, raw []Collision, n int) []Collision {
	if len(sc.cursor) < n {
		sc.cursor = make([]int32, n)
		sc.met = make([]uint64, (n+63)/64)
	}
	cursor := sc.cursor
	for _, col := range raw {
		cursor[col.Other]++
		sc.met[col.Other>>6] |= 1 << (uint(col.Other) & 63)
	}
	// One pass over the bitmap turns each present source's count into
	// its group's start; the scatter then advances the starts.
	var pos int32
	for wi, word := range sc.met[:(n+63)/64] {
		for ; word != 0; word &= word - 1 {
			c := &cursor[wi*64+bits.TrailingZeros64(word)]
			*c, pos = pos, pos+*c
		}
		sc.met[wi] = 0
	}
	start := len(buf)
	buf = slices.Grow(buf, len(raw))[:start+len(raw)]
	out := buf[start:]
	for _, col := range raw {
		out[cursor[col.Other]] = col
		cursor[col.Other]++
	}
	for _, col := range raw {
		cursor[col.Other] = 0
	}
	return buf
}

// Entries reports the total number of inverted-index entries — the sum
// over all stored walks of their non-terminated positions. The query
// planner prices a collision enumeration from it (engine.CollectStats).
func (m *MeetIndex) Entries() int64 { return int64(len(m.entries)) }

// MemoryBytes reports the inverted index storage: 4 bytes per offset
// and per entry.
func (m *MeetIndex) MemoryBytes() int64 {
	return int64(len(m.offsets))*4 + int64(len(m.entries))*4
}
