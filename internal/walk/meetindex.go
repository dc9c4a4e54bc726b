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
			views = append(views, ix.View(hin.NodeID(v)))
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

// meetMark is one source's per-enumeration state: the last walk slot
// (plus one) in which it met the query, and how many walk slots met.
type meetMark struct {
	walk, count int32
}

// collisionScratch is the pooled per-enumeration state: a mark per
// source, a bitmap of the sources that met, and the collisions in
// enumeration order. Marks and bitmap are all zero between uses.
type collisionScratch struct {
	marks []meetMark
	met   []uint64
	raw   []Collision
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

// CollisionsAppend is Collisions appending into buf (which may be nil).
// Passing a retained buffer makes repeated enumerations allocation-free
// once the buffer has grown to the query's collision count.
func (m *MeetIndex) CollisionsAppend(buf []Collision, u hin.NodeID) []Collision {
	ix := m.ix
	sc := collisionPool.Get().(*collisionScratch)
	if len(sc.marks) < ix.n {
		sc.marks = make([]meetMark, ix.n)
		sc.met = make([]uint64, (ix.n+63)/64)
	}
	marks := sc.marks
	// Walks and steps ascend, so the first time a source shows up in
	// walk i's cells is its first meeting in walk i.
	raw := sc.raw[:0]
	vu := ix.View(u)
	for i := 0; i < ix.nw; i++ {
		w := vu.Walk(i)
		stamp := int32(i + 1)
		for s, l := 0, vu.Len(i); s < l; s++ {
			for _, o := range m.At(i, s, hin.NodeID(w[s])) {
				mk := &marks[o]
				if mk.walk == stamp || o == u {
					continue
				}
				mk.walk = stamp
				mk.count++
				sc.met[o>>6] |= 1 << (uint(o) & 63)
				raw = append(raw, Collision{Other: o, Walk: int32(i), Tau: s})
			}
		}
	}

	// Group by source: one pass over the bitmap turns each met source's
	// count into its group's start, then a stable scatter keeps walks
	// ascending within each group.
	var pos int32
	for wi, word := range sc.met[:(ix.n+63)/64] {
		for ; word != 0; word &= word - 1 {
			mk := &marks[wi*64+bits.TrailingZeros64(word)]
			mk.count, pos = pos, pos+mk.count
		}
		sc.met[wi] = 0
	}
	start := len(buf)
	buf = slices.Grow(buf, len(raw))[:start+len(raw)]
	out := buf[start:]
	for _, col := range raw {
		mk := &marks[col.Other]
		out[mk.count] = col
		mk.count++
	}
	for _, col := range raw {
		marks[col.Other] = meetMark{}
	}
	sc.raw = raw
	collisionPool.Put(sc)
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
