package engine

import (
	"errors"
	"testing"

	"semsim/internal/hin"
	"semsim/internal/walk"
)

// TestExplainerAllBackends: every built-in backend's Explain reports its
// own name and returns a score bit-identical to Query.
func TestExplainerAllBackends(t *testing.T) {
	n := 14
	g := testGraph(t, 71, n, 42)
	cfg := buildConfig(t, g, testMeasure(72, n))
	for _, name := range []string{"mc", "reduced", "exact"} {
		b, err := New(name, cfg)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want, err := b.Query(hin.NodeID(u), hin.NodeID(v), nil)
				if err != nil {
					t.Fatalf("%s.Query: %v", name, err)
				}
				ex, err := b.Explain(hin.NodeID(u), hin.NodeID(v))
				if err != nil {
					t.Fatalf("%s.Explain: %v", name, err)
				}
				if ex.Score != want {
					t.Fatalf("%s (%d,%d): Explain score %v != Query %v", name, u, v, ex.Score, want)
				}
				if ex.Backend != name {
					t.Fatalf("%s: explanation names backend %q", name, ex.Backend)
				}
				if name != "mc" {
					if !ex.Exact || ex.CILow != ex.Score || ex.CIHigh != ex.Score {
						t.Fatalf("%s (%d,%d): exact-family backend must report a degenerate interval, got %+v",
							name, u, v, ex)
					}
				}
				if ex.Sem <= 0 || ex.Sem > 1 {
					t.Fatalf("%s (%d,%d): Sem = %v outside (0,1]", name, u, v, ex.Sem)
				}
			}
		}
	}
}

// TestExplainBoundsError: Explain on an out-of-range node wraps the
// ErrNodeOutOfRange sentinel on every backend, so HTTP layers can map it
// to 404 with errors.Is.
func TestExplainBoundsError(t *testing.T) {
	n := 10
	g := testGraph(t, 81, n, 30)
	cfg := buildConfig(t, g, testMeasure(82, n))
	bad := []struct{ u, v hin.NodeID }{
		{hin.NodeID(n), 0}, {0, hin.NodeID(n)}, {-1, 0}, {0, -1},
	}
	for _, name := range []string{"mc", "reduced", "exact"} {
		b, err := New(name, cfg)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		for _, p := range bad {
			if _, err := b.Explain(p.u, p.v); !errors.Is(err, ErrNodeOutOfRange) {
				t.Errorf("%s.Explain(%d,%d): err = %v, want ErrNodeOutOfRange", name, p.u, p.v, err)
			}
			if _, err := b.Query(p.u, p.v, nil); !errors.Is(err, ErrNodeOutOfRange) {
				t.Errorf("%s.Query(%d,%d): err = %v, want ErrNodeOutOfRange", name, p.u, p.v, err)
			}
		}
	}
}

// TestReducedExplainEnvelope: with a high theta some pairs get dropped
// by the reduction; their zero scores must carry a nonzero pruning
// envelope bounded by min(sem, theta), and retained pairs must not.
func TestReducedExplainEnvelope(t *testing.T) {
	n := 14
	g := testGraph(t, 91, n, 42)
	sem := testMeasure(92, n)
	cfg := buildConfig(t, g, sem)
	cfg.Theta = 0.6 // well inside the test measure's [0.1, 1] range
	b, err := New("reduced", cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dropped, retained := 0, 0
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			ex, err := b.Explain(hin.NodeID(u), hin.NodeID(v))
			if err != nil {
				t.Fatal(err)
			}
			if ex.Score == 0 {
				dropped++
				if ex.PruneEnvelope <= 0 {
					t.Fatalf("(%d,%d): zero score with no pruning envelope", u, v)
				}
				if ex.PruneEnvelope > cfg.Theta || ex.PruneEnvelope > ex.Sem {
					t.Fatalf("(%d,%d): envelope %v exceeds min(sem=%v, theta=%v)",
						u, v, ex.PruneEnvelope, ex.Sem, cfg.Theta)
				}
				if !ex.Contains(0) {
					t.Fatalf("(%d,%d): envelope interval must still contain the reported 0", u, v)
				}
			} else {
				retained++
				if ex.PruneEnvelope != 0 {
					t.Fatalf("(%d,%d): retained pair carries envelope %v", u, v, ex.PruneEnvelope)
				}
			}
		}
	}
	if dropped == 0 {
		t.Error("theta 0.6 dropped no pairs — envelope path not exercised")
	}
	if retained == 0 {
		t.Error("theta 0.6 retained no pairs — exact path not exercised")
	}
}

// TestExplainCIContainsExactScore is the calibration property behind the
// /explain endpoint: across random graphs, the 95% CI (with Hall's
// skewness correction, widened by the pruning envelope) must contain
// the exact fixpoint score on at least 95% of node pairs. Run with
// theta = 0 so the only uncertainty is sampling noise — exactly what
// the interval models. Misses correlate within a walk index (an
// unlucky node's walk sample fails every pair touching it), so the
// suite aggregates over twelve independent index builds rather than
// trusting any single one.
func TestExplainCIContainsExactScore(t *testing.T) {
	if testing.Short() {
		t.Skip("CI-containment property suite is slow")
	}
	total, contained := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		n := 12 + int(seed%3)*4
		g := testGraph(t, seed, n, 3*n)
		sem := testMeasure(seed+100, n)
		ix, err := walk.Build(g, walk.Options{NumWalks: 1600, Length: 12, Seed: seed + 200})
		if err != nil {
			t.Fatalf("walk.Build: %v", err)
		}
		cfg := Config{
			Graph: g, Sem: sem, C: 0.6, Theta: 0,
			Walks: ix, Meet: walk.BuildMeetIndex(ix),
		}
		mcb, err := New("mc", cfg)
		if err != nil {
			t.Fatalf("New(mc): %v", err)
		}
		exb, err := New("exact", cfg)
		if err != nil {
			t.Fatalf("New(exact): %v", err)
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				ex, err := mcb.Explain(hin.NodeID(u), hin.NodeID(v))
				if err != nil {
					t.Fatal(err)
				}
				truth, err := exb.Query(hin.NodeID(u), hin.NodeID(v), nil)
				if err != nil {
					t.Fatal(err)
				}
				total++
				if ex.Contains(truth) {
					contained++
				}
			}
		}
	}
	rate := float64(contained) / float64(total)
	t.Logf("CI containment: %d/%d = %.1f%%", contained, total, 100*rate)
	if rate < 0.95 {
		t.Errorf("95%% CI contained the exact score on only %.1f%% of %d pairs", 100*rate, total)
	}
}
