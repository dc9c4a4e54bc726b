package walk

import (
	"fmt"
	"slices"
	"testing"

	"semsim/internal/hin"
)

// TestMeetIndexAt: every live walk position is filed exactly once, in
// the cell of its own walk slot, step and node, with each cell's
// sources strictly ascending — on a graph that spans more than one
// build chunk.
func TestMeetIndexAt(t *testing.T) {
	g := braid(t, meetChunk+9)
	ix, err := Build(g, Options{NumWalks: 5, Length: 6, Seed: 3})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	m := BuildMeetIndex(ix)
	var live int64
	for v := 0; v < g.NumNodes(); v++ {
		for i := 0; i < 5; i++ {
			w := ix.Walk(hin.NodeID(v), i)
			for s := 0; s < ix.WalkLen(hin.NodeID(v), i); s++ {
				live++
				if !slices.Contains(m.At(i, s, hin.NodeID(w[s])), hin.NodeID(v)) {
					t.Fatalf("source %d walk %d missing at step %d node %d", v, i, s, w[s])
				}
			}
		}
	}
	for i := 0; i < 5; i++ {
		for s := 0; s <= 6; s++ {
			for x := 0; x < g.NumNodes(); x++ {
				cell := m.At(i, s, hin.NodeID(x))
				for j := 1; j < len(cell); j++ {
					if cell[j] <= cell[j-1] {
						t.Fatalf("cell (%d,%d,%d) not strictly ascending: %v", i, s, x, cell)
					}
				}
			}
		}
	}
	if m.Entries() != live {
		t.Fatalf("Entries = %d, want %d live positions", m.Entries(), live)
	}
	cells := int64(g.NumNodes() * 5 * 7)
	if got, want := m.MemoryBytes(), 4*(cells+1)+4*live; got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
}

// roughGraph has what uniform test graphs lack: sources without
// in-edges (their walks Stop early), self-loops (a walk can stay put)
// and parallel edges (an in-neighbor drawn with double weight).
func roughGraph(t *testing.T, n int) *hin.Graph {
	t.Helper()
	b := hin.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("r%d", i), "t")
	}
	for i := 3; i < n; i++ {
		b.AddEdge(hin.NodeID((i*7+1)%n), hin.NodeID(i), "e", 1)
		if i%3 == 0 {
			b.AddEdge(hin.NodeID(i), hin.NodeID(i), "self", 1)
		}
		if i%4 == 0 {
			b.AddEdge(hin.NodeID(i-1), hin.NodeID(i), "e", 1)
			b.AddEdge(hin.NodeID(i-1), hin.NodeID(i), "e", 1)
		}
	}
	return b.MustBuild()
}

// checkCollisions compares Collisions(u) for every u with the direct
// Meet probe over every other source and walk slot, which yields the
// collisions in the promised (Other, Walk) order.
func checkCollisions(t *testing.T, ix *Index, m *MeetIndex) {
	t.Helper()
	n := ix.Graph().NumNodes()
	for u := 0; u < n; u++ {
		var want []Collision
		for v := 0; v < n; v++ {
			for i := 0; v != u && i < ix.NumWalks(); i++ {
				if tau, ok := ix.Meet(hin.NodeID(u), hin.NodeID(v), i); ok {
					want = append(want, Collision{Other: hin.NodeID(v), Walk: int32(i), Tau: tau})
				}
			}
		}
		if got := m.Collisions(hin.NodeID(u)); !slices.Equal(got, want) {
			t.Fatalf("u=%d: Collisions = %v, want %v", u, got, want)
		}
	}
}

// TestCollisionsMatchMeet: the walk-keyed enumeration finds exactly the
// pairs and taus the direct Meet probe finds, in (Other, Walk) order —
// on graphs with Stop-terminated walks, self-loops and parallel edges,
// at every build worker count, on resident and lazy walk indexes, and
// after a Repair that grows the graph.
func TestCollisionsMatchMeet(t *testing.T) {
	g := roughGraph(t, 40)
	opts := Options{NumWalks: 12, Length: 7, Seed: 17}
	resident, lazy := lazyFixture(t, g, opts, 1024, 4000, nil)
	for _, workers := range []int{1, 2, 3, 8} {
		checkCollisions(t, resident, buildMeetIndex(resident, workers))
	}
	serial := buildMeetIndex(resident, 1)
	lazyMeet := buildMeetIndex(lazy, 3)
	if !slices.Equal(lazyMeet.offsets, serial.offsets) || !slices.Equal(lazyMeet.entries, serial.entries) {
		t.Fatal("lazy and resident meet indexes differ")
	}
	checkCollisions(t, lazy, lazyMeet)

	grown := grow(t, g, 6)
	changed, err := hin.ChangedInNeighborhoodsGrown(g, grown)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ix   *Index
		meet *MeetIndex
	}{{"resident", resident, serial}, {"lazy", lazy, lazyMeet}} {
		ref, st, err := tc.ix.Refresh(grown, changed, 18)
		if err != nil {
			t.Fatalf("%s Refresh: %v", tc.name, err)
		}
		repaired, err := tc.meet.Repair(ref, st.Touched)
		if err != nil {
			t.Fatalf("%s Repair: %v", tc.name, err)
		}
		checkCollisions(t, ref, repaired)
		// The old epoch's index keeps serving its own walks.
		checkCollisions(t, tc.ix, tc.meet)
	}
}

// TestBuildMeetIndexParallelByteIdentical: the parallel build must
// reproduce the serial build exactly — same offsets, same entries, same
// order within every cell — for any worker count, including counts that
// do not divide the node count evenly.
func TestBuildMeetIndexParallelByteIdentical(t *testing.T) {
	g := braid(t, 37)
	ix, err := Build(g, Options{NumWalks: 18, Length: 9, Seed: 11})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	serial := buildMeetIndex(ix, 1)
	for _, workers := range []int{2, 3, 4, 8, 64} {
		par := buildMeetIndex(ix, workers)
		if len(par.offsets) != len(serial.offsets) || len(par.entries) != len(serial.entries) {
			t.Fatalf("workers=%d: size mismatch (%d/%d offsets, %d/%d entries)", workers,
				len(par.offsets), len(serial.offsets), len(par.entries), len(serial.entries))
		}
		for i, off := range serial.offsets {
			if par.offsets[i] != off {
				t.Fatalf("workers=%d: offsets[%d] = %d, want %d", workers, i, par.offsets[i], off)
			}
		}
		for i, e := range serial.entries {
			if par.entries[i] != e {
				t.Fatalf("workers=%d: entries[%d] = %+v, want %+v", workers, i, par.entries[i], e)
			}
		}
	}
}

// TestCollisionsAppendReuse: appending into a retained buffer returns the
// same collisions as a fresh enumeration, and reuses the buffer's
// capacity when it suffices.
func TestCollisionsAppendReuse(t *testing.T) {
	g := braid(t, 12)
	ix, err := Build(g, Options{NumWalks: 20, Length: 8, Seed: 5})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	m := BuildMeetIndex(ix)
	buf := make([]Collision, 0, 4096)
	for u := 0; u < g.NumNodes(); u++ {
		want := m.Collisions(hin.NodeID(u))
		buf = m.CollisionsAppend(buf[:0], hin.NodeID(u))
		if len(buf) != len(want) {
			t.Fatalf("u=%d: %d collisions, want %d", u, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("u=%d: collision %d = %+v, want %+v", u, i, buf[i], want[i])
			}
		}
		if cap(buf) != 4096 {
			t.Fatalf("u=%d: buffer reallocated (cap %d)", u, cap(buf))
		}
	}
}

// TestCollisionsSorted: collisions come grouped by Other, and by
// ascending walk slot within each group.
func TestCollisionsSorted(t *testing.T) {
	g := braid(t, 9)
	ix, err := Build(g, Options{NumWalks: 10, Length: 6, Seed: 7})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	m := BuildMeetIndex(ix)
	cols := m.Collisions(2)
	if len(cols) == 0 {
		t.Fatal("no collisions for source 2")
	}
	for i := 1; i < len(cols); i++ {
		if cols[i].Other < cols[i-1].Other {
			t.Fatal("collisions not grouped by Other")
		}
		if cols[i].Other == cols[i-1].Other && cols[i].Walk <= cols[i-1].Walk {
			t.Fatal("collisions not sorted by walk within group")
		}
	}
}

// checkMeetingRanges checks, for every u, that MeetingsAppend over the
// walk ranges [0,8), [8,16), ... concatenated in walk order and grouped
// by GroupBySource equals Collisions(u), and that seen comes back all
// false after every range.
func checkMeetingRanges(t *testing.T, ix *Index, m *MeetIndex) {
	t.Helper()
	n, nw := ix.Graph().NumNodes(), ix.NumWalks()
	seen := make([]bool, n)
	for u := 0; u < n; u++ {
		vu := ix.View(hin.NodeID(u), nil)
		var raw []Collision
		for lo := 0; lo < nw; lo += 8 {
			raw = m.MeetingsAppend(raw, hin.NodeID(u), vu, lo, min(lo+8, nw), seen)
			if i := slices.Index(seen, true); i >= 0 {
				t.Fatalf("u=%d range [%d,%d): seen[%d] left set", u, lo, min(lo+8, nw), i)
			}
		}
		for j := 1; j < len(raw); j++ {
			a, b := raw[j-1], raw[j]
			if a.Walk > b.Walk || a.Walk == b.Walk && a.Tau > b.Tau {
				t.Fatalf("u=%d: meetings %+v then %+v not in walk, then step order", u, a, b)
			}
		}
		if got, want := GroupBySource(nil, raw, n), m.Collisions(hin.NodeID(u)); !slices.Equal(got, want) {
			t.Fatalf("u=%d: grouped ranges = %v, want Collisions %v", u, got, want)
		}
	}
}

// TestMeetingsRangesGroupToCollisions: the walk-range enumerator and the
// grouping pass compose to Collisions on resident, lazy and repaired
// indexes, with more than one range per source.
func TestMeetingsRangesGroupToCollisions(t *testing.T) {
	g := roughGraph(t, 40)
	opts := Options{NumWalks: 20, Length: 7, Seed: 17}
	resident, lazy := lazyFixture(t, g, opts, 1024, 4000, nil)
	meet, lazyMeet := BuildMeetIndex(resident), BuildMeetIndex(lazy)
	checkMeetingRanges(t, resident, meet)
	checkMeetingRanges(t, lazy, lazyMeet)

	grown := grow(t, g, 6)
	changed, err := hin.ChangedInNeighborhoodsGrown(g, grown)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ix   *Index
		meet *MeetIndex
	}{{"resident", resident, meet}, {"lazy", lazy, lazyMeet}} {
		ref, st, err := tc.ix.Refresh(grown, changed, 18)
		if err != nil {
			t.Fatalf("%s Refresh: %v", tc.name, err)
		}
		repaired, err := tc.meet.Repair(ref, st.Touched)
		if err != nil {
			t.Fatalf("%s Repair: %v", tc.name, err)
		}
		checkMeetingRanges(t, ref, repaired)
	}
}
