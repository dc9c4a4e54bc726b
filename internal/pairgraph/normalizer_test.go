package pairgraph

import (
	"math"
	"math/rand"
	"testing"

	"semsim/internal/hin"
	"semsim/internal/semantic"
	"semsim/internal/taxonomy"
)

// taxonomyGraph is a random graph of n nodes over a random taxonomy of
// its own nodes: the first n/5 are inner concepts, the rest leaves, so
// same-parent leaves share a concept class. Edges include parallel
// slots and self-loops, and the last two nodes get no in-edges.
func taxonomyGraph(t *testing.T, seed int64, n, m int) (*hin.Graph, *semantic.Kernel) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inner := n / 5
	parents := make([]int32, n)
	for v := range parents {
		parents[v] = -1
		if v > 0 && v < inner {
			parents[v] = int32(rng.Intn(v))
		}
		if v >= inner {
			parents[v] = int32(rng.Intn(inner))
		}
	}
	tax, err := taxonomy.FromParents(parents, taxonomy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := hin.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(name3(i), "t")
	}
	for i := 0; i < m; i++ {
		from, to := hin.NodeID(rng.Intn(n)), hin.NodeID(rng.Intn(n-2))
		w := 0.25 + 2*rng.Float64()
		b.AddEdge(from, to, "e", w)
		switch rng.Intn(8) {
		case 0:
			b.AddEdge(from, to, "f", 0.5*w) // a parallel slot
		case 1:
			b.AddEdge(to, to, "e", w) // a self-loop
		}
	}
	g := b.MustBuild()
	k, err := semantic.NewKernel(semantic.Lin{Tax: tax}, n, semantic.KernelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return g, k
}

// TestNormalizerFactoredMatchesSO: over a dense kernel the factored N
// stays within 1e-12 (relative) of SO's double loop, a row cursor's
// Fill returns N's bits for every pair, and N is symmetric bit for bit.
// The graphs carry parallel edges, self-loops, nodes without in-edges
// and distinct in-neighbours of one concept class.
func TestNormalizerFactoredMatchesSO(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g, k := taxonomyGraph(t, seed, 60, 300)
		z := NewNormalizer(g, k)
		if z.k == nil {
			t.Fatal("a dense kernel over the graph's nodes is not factored")
		}
		n := g.NumNodes()
		sameClass, worst := 0, 0.0
		row, filled := z.NewRow(), make([]float64, n)
		for u := 0; u < n; u++ {
			row.Reset(hin.NodeID(u))
			row.Fill(filled[:n-u])
			for v := u; v < n; v++ {
				a, b := hin.NodeID(u), hin.NodeID(v)
				got, want := z.N(a, b), SO(g, k, a, b)
				if d := math.Abs(got - want); d > 1e-12*want {
					t.Fatalf("seed %d: N(%d,%d) = %v, SO = %v (relative error %g)", seed, u, v, got, want, d/want)
				} else if want > 0 && d/want > worst {
					worst = d / want
				}
				if r := filled[v-u]; math.Float64bits(r) != math.Float64bits(got) {
					t.Fatalf("seed %d: row N(%d,%d) = %v, per-pair N = %v", seed, u, v, r, got)
				}
				if r := z.N(b, a); math.Float64bits(r) != math.Float64bits(got) {
					t.Fatalf("seed %d: N(%d,%d) = %v, N(%d,%d) = %v", seed, v, u, r, u, v, got)
				}
			}
			iu := g.InNeighbors(hin.NodeID(u))
			for i := range iu {
				for j := range iu[:i] {
					if iu[i] != iu[j] && k.Class(iu[i]) == k.Class(iu[j]) {
						sameClass++
					}
				}
			}
		}
		if sameClass == 0 {
			t.Fatalf("seed %d: no in-neighbourhood holds two distinct nodes of one class", seed)
		}
		t.Logf("seed %d: %d classes, worst relative error %.2g", seed, k.NumClasses(), worst)
	}
}

// TestNormalizerUnfactoredIsSO: any other measure sums SO's double loop,
// so N and the row cursor return SO's bits.
func TestNormalizerUnfactoredIsSO(t *testing.T) {
	g := randomGraph(3, 25, 90)
	m := randomMeasure(4, 25)
	z := NewNormalizer(g, m)
	if z.k != nil {
		t.Fatal("a custom measure is factored")
	}
	row, filled := z.NewRow(), make([]float64, 25)
	for u := 0; u < 25; u++ {
		row.Reset(hin.NodeID(u))
		row.Fill(filled[:25-u])
		for v := u; v < 25; v++ {
			want := SO(g, m, hin.NodeID(u), hin.NodeID(v))
			if got := z.N(hin.NodeID(v), hin.NodeID(u)); got != want {
				t.Fatalf("N(%d,%d) = %v, SO = %v", v, u, got, want)
			}
			if got := filled[v-u]; got != want {
				t.Fatalf("row N(%d,%d) = %v, SO = %v", u, v, got, want)
			}
		}
	}
}
