package walk

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"semsim/internal/hin"
)

// addChord returns braid(n) plus one extra edge x -> y, so y's
// in-neighborhood changes.
func addChord(t *testing.T, n int, x, y hin.NodeID) (*hin.Graph, *hin.Graph) {
	t.Helper()
	old := braid(t, n)
	b := hin.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(old.NodeName(hin.NodeID(i)), "t")
	}
	old.Edges(func(e hin.Edge) bool {
		b.AddEdge(e.From, e.To, e.Label, e.Weight)
		return true
	})
	b.AddEdge(x, y, "chord", 1)
	return old, b.MustBuild()
}

func TestRefreshValidWalks(t *testing.T) {
	old, newG := addChord(t, 12, 3, 9)
	ix, err := Build(old, Options{NumWalks: 30, Length: 10, Seed: 2})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	changed, err := hin.ChangedInNeighborhoods(old, newG)
	if err != nil {
		t.Fatalf("ChangedInNeighborhoods: %v", err)
	}
	if len(changed) != 1 || changed[0] != 9 {
		t.Fatalf("changed = %v, want [9]", changed)
	}
	ref, st, err := ix.Refresh(newG, changed, 99)
	if err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if st.Resampled == 0 || st.NewNodes != 0 {
		t.Fatalf("stats = %+v, want resampled > 0 and no new nodes", st)
	}
	// Every refreshed walk must be a valid reversed walk in the NEW graph.
	for v := 0; v < newG.NumNodes(); v++ {
		for i := 0; i < 30; i++ {
			w := ref.Walk(hin.NodeID(v), i)
			if w[0] != int32(v) {
				t.Fatalf("walk (%d,%d) does not start at its node", v, i)
			}
			for s := 1; s <= 10; s++ {
				if w[s] == Stop {
					break
				}
				_, mult := newG.InEdgeAggregate(hin.NodeID(w[s-1]), hin.NodeID(w[s]))
				if mult == 0 {
					t.Fatalf("walk (%d,%d) step %d: %d is not an in-neighbor of %d in the new graph",
						v, i, s, w[s], w[s-1])
				}
			}
		}
	}
	// Walks that never touch the changed node are preserved bit-for-bit.
	preserved := 0
	for v := 0; v < newG.NumNodes(); v++ {
		for i := 0; i < 30; i++ {
			oldW := ix.Walk(hin.NodeID(v), i)
			touches := false
			for _, s := range oldW {
				if s == 9 {
					touches = true
					break
				}
				if s == Stop {
					break
				}
			}
			if touches {
				continue
			}
			newW := ref.Walk(hin.NodeID(v), i)
			for s := range oldW {
				if oldW[s] != newW[s] {
					t.Fatalf("untouched walk (%d,%d) changed at step %d", v, i, s)
				}
			}
			preserved++
		}
	}
	if preserved == 0 {
		t.Fatal("no walks preserved; test graph degenerate")
	}
}

// TestRefreshDistribution: estimates from a refreshed index agree with a
// freshly built index on the new graph, within Monte-Carlo tolerance.
func TestRefreshDistribution(t *testing.T) {
	old, newG := addChord(t, 10, 2, 7)
	ix, err := Build(old, Options{NumWalks: 2000, Length: 10, Seed: 4})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	changed, err := hin.ChangedInNeighborhoods(old, newG)
	if err != nil {
		t.Fatalf("ChangedInNeighborhoods: %v", err)
	}
	ref, _, err := ix.Refresh(newG, changed, 5)
	if err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	fresh, err := Build(newG, Options{NumWalks: 2000, Length: 10, Seed: 6})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Compare meeting-probability-based scores (the SimRank estimand)
	// between refreshed and fresh indexes.
	estimate := func(index *Index, u, v hin.NodeID) float64 {
		var sum float64
		for i := 0; i < index.NumWalks(); i++ {
			if tau, ok := index.Meet(u, v, i); ok {
				sum += math.Pow(0.6, float64(tau))
			}
		}
		return sum / float64(index.NumWalks())
	}
	for _, p := range [][2]hin.NodeID{{0, 1}, {3, 7}, {2, 9}, {4, 5}} {
		a := estimate(ref, p[0], p[1])
		b := estimate(fresh, p[0], p[1])
		if math.Abs(a-b) > 0.03 {
			t.Errorf("pair %v: refreshed %v vs fresh %v", p, a, b)
		}
	}
}

func TestRefreshValidation(t *testing.T) {
	old, _ := addChord(t, 8, 1, 5)
	ix, err := Build(old, Options{NumWalks: 3, Length: 4, Seed: 1})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	smaller := braid(t, 7)
	if _, _, err := ix.Refresh(smaller, nil, 1); err == nil {
		t.Error("Refresh accepted a shrinking node count")
	}
	if _, _, err := ix.Refresh(old, []hin.NodeID{99}, 1); err == nil {
		t.Error("Refresh accepted out-of-range changed node")
	}
}

// TestRefreshLensReconciled: the refreshed index's live-length table must
// match what a from-scratch scan of its walks derives — resampled
// suffixes may stop earlier or later than the originals.
func TestRefreshLensReconciled(t *testing.T) {
	old, newG := addChord(t, 12, 3, 9)
	ix, err := Build(old, Options{NumWalks: 25, Length: 8, Seed: 7})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	changed, err := hin.ChangedInNeighborhoodsGrown(old, newG)
	if err != nil {
		t.Fatalf("ChangedInNeighborhoodsGrown: %v", err)
	}
	ref, _, err := ix.Refresh(newG, changed, 11)
	if err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	for v := 0; v < ref.n; v++ {
		for i := 0; i < ref.nw; i++ {
			w := ref.Walk(hin.NodeID(v), i)
			want := len(w)
			for s, node := range w {
				if node == Stop {
					want = s
					break
				}
			}
			if got := ref.WalkLen(hin.NodeID(v), i); got != want {
				t.Fatalf("walk (%d,%d): WalkLen = %d, scan says %d", v, i, got, want)
			}
		}
	}
}

// grow returns braid(n) plus k extra nodes, each with one edge into and
// one edge out of the existing graph, built so old node ids are stable.
func grow(t *testing.T, old *hin.Graph, k int) *hin.Graph {
	t.Helper()
	n := old.NumNodes()
	b := hin.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(old.NodeName(hin.NodeID(i)), "t")
	}
	old.Edges(func(e hin.Edge) bool {
		b.AddEdge(e.From, e.To, e.Label, e.Weight)
		return true
	})
	for j := 0; j < k; j++ {
		id := b.AddNode(fmt.Sprintf("new%d", j), "t")
		b.AddEdge(hin.NodeID(j%n), id, "link", 1)
		b.AddEdge(id, hin.NodeID((j+1)%n), "link", 1)
	}
	return b.MustBuild()
}

// TestRefreshGrow: adding nodes no longer forces a rebuild — new nodes
// get fresh walks, old nodes whose in-neighborhood gained a new-node
// in-neighbor are resampled, everything else is preserved bit-for-bit.
func TestRefreshGrow(t *testing.T) {
	old := braid(t, 10)
	newG := grow(t, old, 3)
	ix, err := Build(old, Options{NumWalks: 20, Length: 8, Seed: 3})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	changed, err := hin.ChangedInNeighborhoodsGrown(old, newG)
	if err != nil {
		t.Fatalf("ChangedInNeighborhoodsGrown: %v", err)
	}
	ref, st, err := ix.Refresh(newG, changed, 13)
	if err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if st.NewNodes != 3 {
		t.Fatalf("NewNodes = %d, want 3", st.NewNodes)
	}
	if ref.n != 13 {
		t.Fatalf("refreshed index has %d nodes, want 13", ref.n)
	}
	// Every walk (old and new nodes alike) must be valid in the new graph.
	for v := 0; v < ref.n; v++ {
		for i := 0; i < ref.nw; i++ {
			w := ref.Walk(hin.NodeID(v), i)
			if w[0] != int32(v) {
				t.Fatalf("walk (%d,%d) does not start at its node", v, i)
			}
			for s := 1; s < ref.WalkLen(hin.NodeID(v), i); s++ {
				_, mult := newG.InEdgeAggregate(hin.NodeID(w[s-1]), hin.NodeID(w[s]))
				if mult == 0 {
					t.Fatalf("walk (%d,%d) step %d invalid", v, i, s)
				}
			}
		}
	}
	// Untouched blocks are bit-identical.
	for v := 0; v < 10; v++ {
		if st.Touched[v] {
			continue
		}
		for i := 0; i < ref.nw; i++ {
			oldW, newW := ix.Walk(hin.NodeID(v), i), ref.Walk(hin.NodeID(v), i)
			for s := range oldW {
				if oldW[s] != newW[s] {
					t.Fatalf("untouched block %d changed at walk %d step %d", v, i, s)
				}
			}
		}
	}
}

// TestMeetIndexRepair: Repair on a refreshed index must be byte-identical
// to BuildMeetIndex over the refreshed walks — offsets and per-cell entry
// order both — for an edge edit and for node growth.
func TestMeetIndexRepair(t *testing.T) {
	check := func(t *testing.T, ix, ref *Index, st *RefreshStats) {
		t.Helper()
		oldMeet := BuildMeetIndex(ix)
		repaired, err := oldMeet.Repair(ref, st.Touched)
		if err != nil {
			t.Fatalf("Repair: %v", err)
		}
		fresh := BuildMeetIndex(ref)
		if !reflect.DeepEqual(repaired.offsets, fresh.offsets) {
			t.Fatal("repaired offsets differ from a fresh build")
		}
		if !reflect.DeepEqual(repaired.entries, fresh.entries) {
			t.Fatal("repaired entries differ from a fresh build")
		}
	}
	t.Run("edge-edit", func(t *testing.T) {
		old, newG := addChord(t, 14, 3, 9)
		ix, err := Build(old, Options{NumWalks: 20, Length: 8, Seed: 21})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		changed, _ := hin.ChangedInNeighborhoodsGrown(old, newG)
		ref, st, err := ix.Refresh(newG, changed, 22)
		if err != nil {
			t.Fatalf("Refresh: %v", err)
		}
		check(t, ix, ref, st)
	})
	t.Run("growth", func(t *testing.T) {
		old := braid(t, 11)
		newG := grow(t, old, 4)
		ix, err := Build(old, Options{NumWalks: 15, Length: 7, Seed: 23})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		changed, _ := hin.ChangedInNeighborhoodsGrown(old, newG)
		ref, st, err := ix.Refresh(newG, changed, 24)
		if err != nil {
			t.Fatalf("Refresh: %v", err)
		}
		check(t, ix, ref, st)
	})
	t.Run("validation", func(t *testing.T) {
		g := braid(t, 6)
		ix, err := Build(g, Options{NumWalks: 4, Length: 3, Seed: 1})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		m := BuildMeetIndex(ix)
		if _, err := m.Repair(ix, make([]bool, 5)); err == nil {
			t.Error("Repair accepted a wrong-sized touched table")
		}
	})
}

func TestChangedInNeighborhoods(t *testing.T) {
	old, newG := addChord(t, 7, 2, 4)
	changed, err := hin.ChangedInNeighborhoods(old, newG)
	if err != nil {
		t.Fatalf("ChangedInNeighborhoods: %v", err)
	}
	if len(changed) != 1 || changed[0] != 4 {
		t.Fatalf("changed = %v, want [4]", changed)
	}
	// Identical graphs: nothing changed.
	same, err := hin.ChangedInNeighborhoods(old, old)
	if err != nil || len(same) != 0 {
		t.Fatalf("identical graphs: changed = %v, err = %v", same, err)
	}
	if _, err := hin.ChangedInNeighborhoods(old, braid(t, 8)); err == nil {
		t.Error("want error for different node counts")
	}
}

// TestRefreshSharesUntouchedBlocks pins Refresh's copy-on-write rule: a
// block with no resampled walk is the receiver's block itself, a
// touched one is a copy, and the receiver reads exactly what it read
// before.
func TestRefreshSharesUntouchedBlocks(t *testing.T) {
	// n_w*(t+1)*4 = 16 KiB per node: 4-node blocks, 8 of them.
	opts := Options{NumWalks: 512, Length: 7, Seed: 3}
	old, newG := addChord(t, 32, 3, 9)
	ix, err := Build(old, opts)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := Build(old, opts)
	changed, err := hin.ChangedInNeighborhoodsGrown(old, newG)
	if err != nil {
		t.Fatal(err)
	}
	ref, st, err := ix.Refresh(newG, changed, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.blocks) != 8 {
		t.Fatalf("%d blocks, want 8", len(ref.blocks))
	}
	shared := 0
	for b, blk := range ref.blocks {
		lo, hi := ref.span(b)
		touched := false
		for v := lo; v < hi; v++ {
			touched = touched || st.Touched[v]
		}
		if touched == (blk == ix.blocks[b]) {
			t.Fatalf("block %d: touched=%v but shared=%v", b, touched, blk == ix.blocks[b])
		}
		if blk == ix.blocks[b] {
			shared++
		}
	}
	if shared == 0 || shared == len(ref.blocks) {
		t.Fatalf("%d of %d blocks shared; the chord should touch some but not all", shared, len(ref.blocks))
	}
	if ix.MemoryBytes() != before.MemoryBytes() || ref.MemoryBytes() != before.MemoryBytes() {
		t.Fatalf("MemoryBytes %d -> %d, want %d for both", ix.MemoryBytes(), ref.MemoryBytes(), before.MemoryBytes())
	}
	assertSameIndex(t, before, ix)
}
