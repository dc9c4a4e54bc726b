package mc

import (
	"fmt"
	"testing"

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
