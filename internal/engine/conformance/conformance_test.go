package conformance

import (
	"math"
	"testing"

	"semsim/internal/engine"
	"semsim/internal/hin"
)

// TestConformanceAllBackends drives the full differential suite against
// every backend in the registry. A new backend gets conformance
// coverage the moment it registers — this loop discovers it through
// engine.Names(), no test change needed.
func TestConformanceAllBackends(t *testing.T) {
	names := engine.Names()
	for _, want := range []string{"mc", "reduced", "exact", "linear"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("registry %v is missing backend %q", names, want)
		}
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			RunConformance(t, name)
		})
	}
}

// TestLinearSolveConvergence pins the linear backend's solver evidence:
// the solve must report a residual at or below the configured budget
// (i.e. it converged rather than exhausting sweeps), within the sweep
// budget, and tightening the residual must not change scores beyond
// the old residual's envelope.
func TestLinearSolveConvergence(t *testing.T) {
	g := RandomGraph(5, 16, 48)
	sem := RandomMeasure(105, 16, 0.1)
	cfg := buildConfig(t, g, sem, Options{NumWalks: 40, WalkLength: 8, C: 0.6, Theta: 0.05})

	b := mustNew(t, "linear", cfg)
	lin, ok := b.(interface {
		Sweeps() int
		Residual() float64
		Diagonal() []float64
	})
	if !ok {
		t.Fatal("linear backend does not expose solve evidence")
	}
	if lin.Residual() > engine.DefaultLinearResidual {
		t.Errorf("solve residual %v above default budget %v (did not converge)",
			lin.Residual(), engine.DefaultLinearResidual)
	}
	if s := lin.Sweeps(); s < 1 || s > engine.DefaultLinearSweeps {
		t.Errorf("solve ran %d sweeps, want within (0,%d]", s, engine.DefaultLinearSweeps)
	}
	if d := lin.Diagonal(); len(d) != g.NumNodes() {
		t.Errorf("diagonal correction has %d entries for %d nodes", len(d), g.NumNodes())
	}

	// A visibly looser budget must still land within its own residual
	// envelope of the converged solve.
	loose := cfg
	loose.LinearResidual = 1e-4
	b2 := mustNew(t, "linear", loose)
	for u := 0; u < g.NumNodes(); u++ {
		for v := u + 1; v < g.NumNodes(); v++ {
			s1, _ := b.Query(hin.NodeID(u), hin.NodeID(v), nil)
			s2, _ := b2.Query(hin.NodeID(u), hin.NodeID(v), nil)
			if d := math.Abs(s1 - s2); d > 1e-3 {
				t.Errorf("loose solve drifted %v at (%d,%d)", d, u, v)
			}
		}
	}

	// The sweep budget is honored: a one-sweep solve reports one sweep.
	capped := cfg
	capped.LinearMaxSweeps = 1
	b3 := mustNew(t, "linear", capped)
	lin3 := b3.(interface{ Sweeps() int })
	if lin3.Sweeps() != 1 {
		t.Errorf("LinearMaxSweeps=1 ran %d sweeps", lin3.Sweeps())
	}
}

// TestLinearNodeCap: the linear backend refuses graphs above its node
// budget instead of attempting an unaffordable O(n^2 d^2) solve.
func TestLinearNodeCap(t *testing.T) {
	g := RandomGraph(9, 12, 24)
	cfg := buildConfig(t, g, RandomMeasure(10, 12, 0.1), Options{NumWalks: 20, WalkLength: 6, C: 0.6, Theta: 0.05})
	cfg.MaxLinearNodes = 8
	if _, err := engine.New("linear", cfg); err == nil {
		t.Error("linear backend accepted a graph above MaxLinearNodes")
	}
}
