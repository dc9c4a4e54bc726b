package conformance

import (
	"math"
	"testing"

	"semsim/internal/hin"
	"semsim/internal/semantic"
)

// goldenCheck is one hand-verified expectation: the score of the named
// pair at c = 0.6, derived by working Equation 1 by hand.
type goldenCheck struct {
	u, v string
	want float64
}

// goldenFixture is a tiny graph whose SemSim fixpoint can be computed
// on paper, pinning the solvers to the paper's definition rather than
// only to each other.
type goldenFixture struct {
	name  string
	build func() (*hin.Graph, semantic.Measure)
	want  []goldenCheck
}

// goldenFixtures: all derivations below use Equation 1 with c = 0.6,
// sim(u,u) = 1 and sim = 0 for nodes with an empty in-neighborhood.
var goldenFixtures = []goldenFixture{
	{
		// p -> x, p -> y: I(x) = I(y) = {p}, N(x,y) = sem(p,p) = 1, so
		// sim(x,y) = sem(x,y)*c*sim(p,p) = 0.6. p itself has no
		// in-neighbors, so every pair involving p scores 0.
		name: "shared-parent",
		build: func() (*hin.Graph, semantic.Measure) {
			b := hin.NewBuilder()
			p := b.AddNode("p", "t")
			x := b.AddNode("x", "t")
			y := b.AddNode("y", "t")
			b.AddEdge(p, x, "e", 1)
			b.AddEdge(p, y, "e", 1)
			return b.MustBuild(), semantic.Uniform{}
		},
		want: []goldenCheck{
			{"x", "y", 0.6},
			{"p", "x", 0},
			{"p", "y", 0},
		},
	},
	{
		// p,q -> x and p,q -> y with unit weights and uniform sem:
		// N(x,y) = 4, and of the four in-neighbor pairs only (p,p) and
		// (q,q) carry similarity 1 (p,q have no in-neighbors, so
		// sim(p,q) = 0): sim(x,y) = 1*0.6/4 * (1+0+0+1) = 0.3.
		name: "two-parents",
		build: func() (*hin.Graph, semantic.Measure) {
			b := hin.NewBuilder()
			p := b.AddNode("p", "t")
			q := b.AddNode("q", "t")
			x := b.AddNode("x", "t")
			y := b.AddNode("y", "t")
			for _, child := range []hin.NodeID{x, y} {
				b.AddEdge(p, child, "e", 1)
				b.AddEdge(q, child, "e", 1)
			}
			return b.MustBuild(), semantic.Uniform{}
		},
		want: []goldenCheck{
			{"x", "y", 0.3},
			{"p", "q", 0},
		},
	},
	{
		// The shared-parent shape with sem(x,y) = 0.5: the semantic
		// factor scales the structural score linearly, sim(x,y) =
		// 0.5*0.6*1 = 0.3 (N(x,y) = sem(p,p) = 1 is unaffected).
		name: "semantic-factor",
		build: func() (*hin.Graph, semantic.Measure) {
			b := hin.NewBuilder()
			p := b.AddNode("p", "t")
			x := b.AddNode("x", "t")
			y := b.AddNode("y", "t")
			b.AddEdge(p, x, "e", 1)
			b.AddEdge(p, y, "e", 1)
			g := b.MustBuild()
			sem := semantic.Func{N: "golden", F: func(u, v hin.NodeID) float64 {
				if (u == x && v == y) || (u == y && v == x) {
					return 0.5
				}
				return 1
			}}
			return g, sem
		},
		want: []goldenCheck{
			{"x", "y", 0.3},
		},
	},
}

// runGolden checks the backend against every hand-verified fixture.
// Exact-capable backends must hit the derived values within ExactTol;
// sampling backends within their CLT band (the fixtures' deterministic
// walk structure makes most of them exact even for mc).
func runGolden(t *testing.T, backend string, opts Options) {
	for _, fx := range goldenFixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			g, sem := fx.build()
			cfg := buildConfig(t, g, sem, opts)
			cfg.C = 0.6 // the hand derivations fix c
			b := mustNew(t, backend, cfg)
			tol := ExactTol
			if !b.Caps().Exact {
				_, tol = MCTolerance(opts.NumWalks)
			}
			for _, gc := range fx.want {
				u, okU := g.NodeByName(gc.u)
				v, okV := g.NodeByName(gc.v)
				if !okU || !okV {
					t.Fatalf("fixture %s: node %s/%s not found", fx.name, gc.u, gc.v)
				}
				s, err := b.Query(u, v, nil)
				if err != nil {
					t.Fatalf("Query(%s,%s): %v", gc.u, gc.v, err)
				}
				if d := math.Abs(s - gc.want); d > tol {
					t.Errorf("%s: sim(%s,%s) = %.9f, hand-verified %.4f (|d|=%.2e > %v)",
						fx.name, gc.u, gc.v, s, gc.want, d, tol)
				}
				if su, _ := b.Query(u, u, nil); su != 1 {
					t.Errorf("%s: sim(%s,%s) = %v, want 1", fx.name, gc.u, gc.u, su)
				}
			}
		})
	}
}
