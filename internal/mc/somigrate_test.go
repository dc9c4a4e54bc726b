package mc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"semsim/internal/hin"
	"semsim/internal/pairgraph"
	"semsim/internal/semantic"
	"semsim/internal/taxonomy"
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

// kernelEpoch is one epoch of the mutation flow over a dense semantic
// kernel: the graph, its taxonomy measure and the kernel over it.
type kernelEpoch struct {
	g    *hin.Graph
	tax  *taxonomy.Taxonomy
	kern *semantic.Kernel
}

// TestMigrateDenseKernel: over a dense semantic kernel, where N is
// summed over concept classes, the migrated dense table equals a fresh
// dense fill bit for bit after an edge commit, an add_node commit that
// grows the kernel's domain (and, here, the one-member class of the
// taxonomy root's leaves, which changes that class's same-class cell),
// an IC commit on an inner concept (cells move, the class partition
// does not) and an IC commit on a leaf (the partition moves, so every
// row is recomputed). The migrated map-mode cache answers every pair
// with the same bits.
func TestMigrateDenseKernel(t *testing.T) {
	const n0 = 48
	rng := rand.New(rand.NewSource(5))
	parents := make([]int32, n0)
	for v := range parents {
		switch {
		case v == 0 || v == n0-1:
			parents[v] = -1 // v = n0-1 is the root's only leaf
		case v < 8:
			parents[v] = int32(rng.Intn(v))
		default:
			parents[v] = int32(rng.Intn(8))
		}
	}
	tax, err := taxonomy.FromParents(parents, taxonomy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := hin.NewBuilder()
	for i := 0; i < n0; i++ {
		b.AddNode(name3(i), "t")
	}
	for i := 0; i < 200; i++ {
		b.AddEdge(hin.NodeID(rng.Intn(n0)), hin.NodeID(rng.Intn(n0)), "e", 0.5+rng.Float64())
	}
	b.AddEdge(n0-1, 3, "e", 1)
	b.AddEdge(n0-1, 4, "e", 1)
	cur := kernelEpoch{g: b.MustBuild(), tax: tax}
	cur.kern = newTestKernel(t, semantic.Lin{Tax: tax}, n0)
	dense := NewSOCache(cur.g, cur.kern, 0.1)
	if !dense.EnableDense(0, 2) {
		t.Fatal("EnableDense refused")
	}
	lazy := NewSOCache(cur.g, cur.kern, 0.1)
	lazy.Precompute()

	leaf := hin.NodeID(-1) // a leaf sharing its class with a sibling
	for v := 8; v < n0-1 && leaf < 0; v++ {
		for w := v + 1; w < n0-1; w++ {
			if cur.kern.Class(hin.NodeID(v)) == cur.kern.Class(hin.NodeID(w)) {
				leaf = hin.NodeID(v)
				break
			}
		}
	}
	commits := []struct {
		name   string
		edges  [][2]hin.NodeID // added edges; ids past the graph are new nodes
		ic     map[int32]float64
		resets bool // the class partition moves
	}{
		{name: "edge", edges: [][2]hin.NodeID{{2, 9}}},
		{name: "add_node", edges: [][2]hin.NodeID{{n0, 5}, {7, n0}, {n0 - 1, n0}}},
		{name: "ic-inner", ic: map[int32]float64{1: 0.35}},
		{name: "ic-leaf", ic: map[int32]float64{int32(leaf): 0.6}, resets: true},
	}
	for _, cm := range commits {
		next := kernelEpoch{tax: cur.tax}
		nb := hin.NewBuilder()
		for i := 0; i < cur.g.NumNodes(); i++ {
			nb.AddNode(cur.g.NodeName(hin.NodeID(i)), cur.g.NodeLabel(hin.NodeID(i)))
		}
		cur.g.Edges(func(e hin.Edge) bool {
			nb.AddEdge(e.From, e.To, e.Label, e.Weight)
			return true
		})
		grown := 0
		for _, e := range cm.edges {
			for _, x := range e {
				for int(x) >= cur.g.NumNodes()+grown {
					nb.AddNode(fmt.Sprintf("new%d", grown), "t")
					grown++
				}
			}
			nb.AddEdge(e[0], e[1], "mut", 1)
		}
		next.g = nb.MustBuild()
		n2 := next.g.NumNodes()
		if grown > 0 {
			next.tax = next.tax.Grow(grown)
		}
		affected := make([]bool, n2)
		if cm.ic != nil {
			next.tax = next.tax.WithIC(cm.ic)
			for x := range cm.ic {
				for v := 0; v < n2; v++ {
					affected[v] = affected[v] || next.tax.IsAncestor(x, int32(v))
				}
			}
		}
		next.kern, err = cur.kern.Refresh(semantic.Lin{Tax: next.tax}, n2, affected, semantic.KernelOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ids, err := hin.ChangedInNeighborhoodsGrown(cur.g, next.g)
		if err != nil {
			t.Fatal(err)
		}
		changed := make([]bool, n2)
		for _, v := range ids {
			changed[v] = true
		}
		moved := false
		for v := 0; v < cur.g.NumNodes(); v++ {
			moved = moved || cur.kern.Class(hin.NodeID(v)) != next.kern.Class(hin.NodeID(v))
		}
		if moved != cm.resets {
			t.Fatalf("%s: class partition moved = %v, want %v", cm.name, moved, cm.resets)
		}
		recompute := pairgraph.NewNormalizer(next.g, next.kern).Recompute(pairgraph.NewNormalizer(cur.g, cur.kern), changed)
		for v, r := range recompute {
			if moved && !r {
				t.Fatalf("%s: the class partition moved, yet node %d's row would be carried", cm.name, v)
			}
		}

		dense = dense.Migrate(next.g, next.kern, changed, 2)
		lazy = lazy.Migrate(next.g, next.kern, changed, 2)
		fresh := NewSOCache(next.g, next.kern, 0.1)
		fresh.EnableDense(0, 1)
		want, _ := fresh.Table(next.g, next.kern)
		got, ok := dense.Table(next.g, next.kern)
		if !ok {
			t.Fatalf("%s: migrated cache has no dense table", cm.name)
		}
		for u := 0; u < n2; u++ {
			wantRow, gotRow := want.Row(hin.NodeID(u)), got.Row(hin.NodeID(u))
			for i, w := range wantRow {
				if x := gotRow[i]; math.Float64bits(x) != math.Float64bits(w) {
					t.Fatalf("%s: migrated table N(%d,%d) = %v, fresh fill %v", cm.name, u, u+i, x, w)
				}
				if x, _ := lazy.SO(hin.NodeID(u), hin.NodeID(u+i)); math.Float64bits(x) != math.Float64bits(w) {
					t.Fatalf("%s: migrated map-mode N(%d,%d) = %v, fresh fill %v", cm.name, u, u+i, x, w)
				}
			}
		}
		cur = next
	}
}

// randomTaxonomy is a random taxonomy over n graph nodes: the first n/4
// are inner concepts, the rest leaves, so same-parent leaves share a
// kernel class.
func randomTaxonomy(t *testing.T, seed int64, n int) *taxonomy.Taxonomy {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	parents := make([]int32, n)
	for v := range parents {
		parents[v] = -1
		if v > 0 {
			parents[v] = int32(rng.Intn(min(v, n/4)))
		}
	}
	tax, err := taxonomy.FromParents(parents, taxonomy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tax
}

func newTestKernel(t *testing.T, base semantic.Measure, n int) *semantic.Kernel {
	t.Helper()
	k, err := semantic.NewKernel(base, n, semantic.KernelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !k.DenseMode() {
		t.Fatal("test kernel is not dense")
	}
	return k
}
