package mc

import (
	"fmt"
	"sync"
	"testing"

	"semsim/internal/core/pairkey"
	"semsim/internal/hin"
	"semsim/internal/pairgraph"
)

// mutateGraph returns g plus one extra edge x -> y (so y's
// in-neighborhood changes), preserving node ids.
func mutateGraph(t *testing.T, g *hin.Graph, x, y hin.NodeID) *hin.Graph {
	t.Helper()
	b := hin.NewBuilder()
	for i := 0; i < g.NumNodes(); i++ {
		b.AddNode(g.NodeName(hin.NodeID(i)), g.NodeLabel(hin.NodeID(i)))
	}
	g.Edges(func(e hin.Edge) bool {
		b.AddEdge(e.From, e.To, e.Label, e.Weight)
		return true
	})
	b.AddEdge(x, y, "mut", 1)
	return b.MustBuild()
}

func TestInvalidateAll(t *testing.T) {
	g := randomGraph(11, 20, 60, true)
	sem := randomMeasure(12, 20)
	for _, dense := range []bool{false, true} {
		t.Run(fmt.Sprintf("dense=%v", dense), func(t *testing.T) {
			c := NewSOCache(g, sem, 0.1)
			c.Precompute()
			if dense && !c.EnableDense(0, 2) {
				t.Fatal("EnableDense refused")
			}
			before, _ := c.SO(3, 7)
			if c.Len() == 0 {
				t.Fatal("cache empty after warm")
			}
			c.InvalidateAll()
			if got := c.Summary().Entries; got != 0 {
				t.Fatalf("Summary.Entries = %d after InvalidateAll, want 0", got)
			}
			if c.Dense() {
				t.Fatal("dense table still published after InvalidateAll")
			}
			// Probes recompute and return identical values.
			if after, _ := c.SO(3, 7); after != before {
				t.Fatalf("SO(3,7) = %v after invalidation, want %v", after, before)
			}
		})
	}
}

func TestInvalidatePairs(t *testing.T) {
	g := randomGraph(13, 20, 60, true)
	sem := randomMeasure(14, 20)
	pairs := [][2]hin.NodeID{{7, 3}, {4, 4}, {0, 19}}
	for _, dense := range []bool{false, true} {
		t.Run(fmt.Sprintf("dense=%v", dense), func(t *testing.T) {
			c := NewSOCache(g, sem, 0.1)
			c.Precompute()
			if dense && !c.EnableDense(0, 2) {
				t.Fatal("EnableDense refused")
			}
			n0 := c.Summary().Entries
			c.InvalidatePairs(pairs)
			s := c.Summary()
			if dense {
				if s.Entries != n0 {
					t.Fatalf("dense entries = %d, want %d (cells are recomputed, not dropped)", s.Entries, n0)
				}
			} else if s.Entries >= n0 {
				t.Fatalf("map entries = %d, want < %d after eviction", s.Entries, n0)
			}
			for _, p := range pairs {
				a, b := pairkey.Canonical(p[0], p[1])
				want := pairgraph.SO(g, sem, a, b)
				if got, _ := c.SO(p[0], p[1]); got != want {
					t.Fatalf("SO%v = %v after invalidation, want %v", p, got, want)
				}
			}
		})
	}
}

// TestInvalidateConcurrent drives probes, pair invalidations and a full
// flush from many goroutines at once; under -race this is the coherence
// gate for the copy-on-write dense republish and the shard locking.
func TestInvalidateConcurrent(t *testing.T) {
	g := randomGraph(15, 24, 80, true)
	sem := randomMeasure(16, 24)
	for _, dense := range []bool{false, true} {
		t.Run(fmt.Sprintf("dense=%v", dense), func(t *testing.T) {
			c := NewSOCache(g, sem, 0.1)
			c.Precompute()
			if dense && !c.EnableDense(0, 2) {
				t.Fatal("EnableDense refused")
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for it := 0; it < 200; it++ {
						a, b := pairkey.Canonical(
							hin.NodeID((w*31+it)%24), hin.NodeID((w*17+it*7)%24))
						want := pairgraph.SO(g, sem, a, b)
						if got, _ := c.SO(a, b); got != want {
							t.Errorf("SO(%d,%d) = %v, want %v", a, b, got, want)
							return
						}
					}
				}(w)
			}
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for it := 0; it < 50; it++ {
						c.InvalidatePairs([][2]hin.NodeID{
							{hin.NodeID(it % 24), hin.NodeID((it * 5) % 24)},
						})
					}
					if w == 0 {
						c.InvalidateAll()
					}
					_ = c.Summary()
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestMigrate: the successor cache must agree with a fresh build on the
// new graph for every pair, while reusing unaffected entries.
func TestMigrate(t *testing.T) {
	g := randomGraph(21, 22, 70, true)
	sem := randomMeasure(22, 22)
	newG := mutateGraph(t, g, 2, 9)
	changed := make([]bool, 22)
	changed[9] = true
	for _, dense := range []bool{false, true} {
		t.Run(fmt.Sprintf("dense=%v", dense), func(t *testing.T) {
			c := NewSOCache(g, sem, 0.1)
			c.Precompute()
			if dense && !c.EnableDense(0, 2) {
				t.Fatal("EnableDense refused")
			}
			mig := c.Migrate(newG, sem, changed, 2)
			if dense != mig.Dense() {
				t.Fatalf("Dense() = %v after migrate, want %v", mig.Dense(), dense)
			}
			for u := 0; u < 22; u++ {
				for v := u; v < 22; v++ {
					want := pairgraph.SO(newG, sem, hin.NodeID(u), hin.NodeID(v))
					if got, _ := mig.SO(hin.NodeID(u), hin.NodeID(v)); got != want {
						t.Fatalf("migrated SO(%d,%d) = %v, want %v", u, v, got, want)
					}
				}
			}
			if !dense && mig.Summary().Entries == 0 {
				t.Fatal("map migrate carried over no entries")
			}
		})
	}
}
