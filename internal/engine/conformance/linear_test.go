package conformance

import (
	"math"
	"sync/atomic"
	"testing"

	"semsim/internal/core"
	"semsim/internal/engine"
	"semsim/internal/hin"
	"semsim/internal/mc"
	"semsim/internal/pairgraph"
	"semsim/internal/semantic"
)

// linearSolve is the solve evidence the linear backend exposes.
type linearSolve interface {
	engine.Backend
	Sweeps() int
	Diagonal() []float64
}

// countingMeasure counts Sim probes. It is a pointer, so an SO cache
// built over it matches the same measure a backend is handed.
type countingMeasure struct {
	semantic.Measure
	probes atomic.Int64
}

func (m *countingMeasure) Sim(u, v hin.NodeID) float64 {
	m.probes.Add(1)
	return m.Measure.Sim(u, v)
}

// edgeCaseGraph is a multigraph with the in-neighborhood shapes the
// row-factored sweep must get right: duplicate in-slots (parallel edges,
// one with another label), self-loops, and two nodes with no in-edges.
func edgeCaseGraph() *hin.Graph {
	b := hin.NewBuilder()
	for i := 0; i < 10; i++ {
		b.AddNode(name(i), "t")
	}
	for i := 0; i < 8; i++ { // nodes 8 and 9 get no in-edges
		b.AddEdge(hin.NodeID(i), hin.NodeID((i+1)%8), "e", 1)
	}
	b.AddEdge(0, 1, "e", 0.5)
	b.AddEdge(0, 1, "f", 2)
	b.AddEdge(2, 3, "e", 1.5)
	b.AddEdge(4, 4, "e", 1)
	b.AddEdge(5, 5, "e", 0.7)
	b.AddEdge(8, 0, "e", 1)
	b.AddEdge(8, 5, "e", 1)
	b.AddEdge(9, 3, "e", 2)
	b.AddEdge(3, 6, "e", 1)
	return b.MustBuild()
}

func name(i int) string { return string(rune('a' + i)) }

// linearDatasets are the graphs the linear-solve tests run on: the
// conformance generators plus the edge-case multigraph.
func linearDatasets(t *testing.T) map[string]struct {
	g   *hin.Graph
	sem semantic.Measure
} {
	tg, tsem := TaxonomyGraph(t, 3, 14)
	return map[string]struct {
		g   *hin.Graph
		sem semantic.Measure
	}{
		"random":    {RandomGraph(21, 14, 40), RandomMeasure(22, 14, 0.1)},
		"taxonomy":  {tg, tsem},
		"edge-case": {edgeCaseGraph(), RandomMeasure(23, 10, 0.1)},
	}
}

// TestLinearSharedSOTable: a linear backend handed a dense SO table over
// its own graph and measure reads N(u,v) from it — it probes the measure
// only for kappa's sem(u,v), once per off-diagonal pair with a nonzero
// normalization, and leaves the cache's hit counters alone — and solves
// bit-identically to one computing N itself: every score, the diagonal
// correction and the sweep count.
func TestLinearSharedSOTable(t *testing.T) {
	for dsName, ds := range linearDatasets(t) {
		t.Run(dsName, func(t *testing.T) {
			g, n := ds.g, ds.g.NumNodes()
			sem := &countingMeasure{Measure: ds.sem}
			var wantProbes int64
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if pairgraph.SO(g, ds.sem, hin.NodeID(u), hin.NodeID(v)) != 0 {
						wantProbes++
					}
				}
			}
			cache := mc.NewSOCache(g, sem, 0)
			if !cache.EnableDense(0, 1) {
				t.Fatal("EnableDense refused a tiny graph")
			}

			self := mustNew(t, "linear", engine.Config{Graph: g, Sem: sem}).(linearSolve)
			sem.probes.Store(0)
			shared := mustNew(t, "linear", engine.Config{Graph: g, Sem: sem, Cache: cache}).(linearSolve)
			if got := sem.probes.Load(); got != wantProbes {
				t.Errorf("solve over the shared table made %d measure probes, want %d (kappa's sem reads only)", got, wantProbes)
			}
			if s := cache.Summary(); s.Hits != 0 || s.Misses != 0 {
				t.Errorf("solve touched the cache's counters: %+v", s)
			}

			// A table over another measure value is not N for this one:
			// the solve computes N itself.
			other := mc.NewSOCache(g, ds.sem, 0)
			other.EnableDense(0, 1)
			sem.probes.Store(0)
			mustNew(t, "linear", engine.Config{Graph: g, Sem: sem, Cache: other})
			if got := sem.probes.Load(); got <= wantProbes {
				t.Errorf("solve used a table built over another measure (%d probes)", got)
			}

			if self.Sweeps() != shared.Sweeps() {
				t.Errorf("sweeps: %d computing N, %d from the table", self.Sweeps(), shared.Sweeps())
			}
			d1, d2 := self.Diagonal(), shared.Diagonal()
			for u := range d1 {
				if d1[u] != d2[u] {
					t.Fatalf("D(%d): %v computing N, %v from the table", u, d1[u], d2[u])
				}
			}
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					a, _ := self.Query(hin.NodeID(u), hin.NodeID(v), nil)
					b, _ := shared.Query(hin.NodeID(u), hin.NodeID(v), nil)
					if a != b {
						t.Fatalf("S(%d,%d): %v computing N, %v from the table", u, v, a, b)
					}
				}
			}
		})
	}
}

// TestLinearAgreesWithIterative: the row-factored solve lands on the
// fixpoint of core.Iterative (run to full convergence) within 1e-9 on
// every dataset, including duplicate in-slots, self-loops and nodes
// without in-edges, and so does its diagonal correction: D(u) = 1 -
// c/N(u,u) * sum_{a,b in I(u)} w(a,u)*w(b,u)*S(a,b) over the oracle's
// scores (1 where I(u) is empty). The residual budget is tightened
// below the default so the bound measures the solve's arithmetic, not
// where it stops.
func TestLinearAgreesWithIterative(t *testing.T) {
	for dsName, ds := range linearDatasets(t) {
		t.Run(dsName, func(t *testing.T) {
			g, n := ds.g, ds.g.NumNodes()
			lin := mustNew(t, "linear", engine.Config{Graph: g, Sem: ds.sem, LinearResidual: 1e-13}).(linearSolve)
			ref, err := core.Iterative(g, ds.sem, core.IterOptions{C: 0.6, MaxIterations: 200})
			if err != nil {
				t.Fatal(err)
			}
			var worst float64
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					s, _ := lin.Query(hin.NodeID(u), hin.NodeID(v), nil)
					if d := math.Abs(s - ref.Scores.At(hin.NodeID(u), hin.NodeID(v))); d > worst {
						worst = d
					}
				}
			}
			if worst > 1e-9 {
				t.Errorf("linear solve differs from core.Iterative by up to %g", worst)
			}
			diag := lin.Diagonal()
			for u := 0; u < n; u++ {
				want := 1.0
				if nu := pairgraph.SO(g, ds.sem, hin.NodeID(u), hin.NodeID(u)); nu != 0 {
					iu, wu := g.InNeighbors(hin.NodeID(u)), g.InWeights(hin.NodeID(u))
					var sum float64
					for i, a := range iu {
						for j, b := range iu {
							sum += wu[i] * wu[j] * ref.Scores.At(a, b)
						}
					}
					want = 1 - 0.6/nu*sum
				}
				if d := math.Abs(diag[u] - want); d > 1e-9 {
					t.Errorf("D(%d) = %v, want %v from the oracle's fixpoint", u, diag[u], want)
				}
			}
		})
	}
}
