package mc

import (
	"math"
	"testing"

	"semsim/internal/hin"
	"semsim/internal/obs"
	"semsim/internal/walk"
)

// TestExplainBitIdentity: the observe-don't-perturb contract. Explain
// must reproduce Query's score bit for bit on every pair, with and
// without theta pruning, with and without an SO cache.
func TestExplainBitIdentity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		theta float64
		cache bool
	}{
		{"theta0", 0, false},
		{"theta0.05", 0.05, false},
		{"theta0.05-cache", 0.05, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := randomGraph(21, 14, 50, true)
			m := randomMeasure(22, 14)
			ix, err := walk.Build(g, walk.Options{NumWalks: 120, Length: 12, Seed: 5})
			if err != nil {
				t.Fatalf("walk.Build: %v", err)
			}
			opts := Options{C: 0.6, Theta: tc.theta}
			if tc.cache {
				opts.Cache = NewSOCache(g, m, 0.1)
			}
			est, err := New(ix, m, opts)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			for u := 0; u < g.NumNodes(); u++ {
				for v := 0; v < g.NumNodes(); v++ {
					want := est.QueryCost(hin.NodeID(u), hin.NodeID(v), nil)
					ex := est.Explain(hin.NodeID(u), hin.NodeID(v))
					if ex.Score != want {
						t.Fatalf("(%d,%d): Explain score %v != Query %v (diff %g)",
							u, v, ex.Score, want, ex.Score-want)
					}
				}
			}
		})
	}
}

// TestExplainEvidenceConsistency: the recorded evidence must be
// internally consistent — coupled walks equal the per-step meeting
// counts, the CI brackets the mean, and the mean reproduces the
// pre-clamp estimate.
func TestExplainEvidenceConsistency(t *testing.T) {
	g := randomGraph(31, 12, 44, true)
	m := randomMeasure(32, 12)
	ix, err := walk.Build(g, walk.Options{NumWalks: 150, Length: 10, Seed: 9})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	est, err := New(ix, m, Options{C: 0.6, Theta: 0.02})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sawCoupled := false
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			if u == v {
				continue
			}
			ex := est.Explain(hin.NodeID(u), hin.NodeID(v))
			if ex.Backend != "mc" || ex.Theta != 0.02 {
				t.Fatalf("(%d,%d): provenance %q theta %v", u, v, ex.Backend, ex.Theta)
			}
			if ex.SemSkipped {
				if ex.Score != 0 || ex.NumWalks != 0 || ex.PruneEnvelope != ex.Sem {
					t.Fatalf("(%d,%d): inconsistent sem-skip explanation %+v", u, v, ex)
				}
				continue
			}
			if ex.NumWalks != ix.NumWalks() {
				t.Fatalf("(%d,%d): NumWalks %d, want %d", u, v, ex.NumWalks, ix.NumWalks())
			}
			if len(ex.MeetsByStep) != ix.Length()+1 {
				t.Fatalf("(%d,%d): MeetsByStep length %d, want %d", u, v, len(ex.MeetsByStep), ix.Length()+1)
			}
			var meets int64
			for _, c := range ex.MeetsByStep {
				meets += c
			}
			if int(meets) != ex.WalksCoupled {
				t.Fatalf("(%d,%d): sum(MeetsByStep) = %d != WalksCoupled %d", u, v, meets, ex.WalksCoupled)
			}
			if ex.WalksCoupled > 0 {
				sawCoupled = true
			}
			if ex.CILow > ex.Mean || ex.Mean > ex.CIHigh {
				// The clamp can pull CI bounds inside [0,1] while the raw
				// mean sits outside; but the raw mean of nonneg scores is
				// nonneg and <= sem <= 1, so bracketing must hold here.
				t.Fatalf("(%d,%d): CI [%v,%v] does not bracket mean %v", u, v, ex.CILow, ex.CIHigh, ex.Mean)
			}
			if ex.Variance < 0 || math.IsNaN(ex.Variance) || math.IsNaN(ex.StdErr) {
				t.Fatalf("(%d,%d): bad variance %v / stderr %v", u, v, ex.Variance, ex.StdErr)
			}
			if ex.Sem <= 0.02 {
				t.Fatalf("(%d,%d): pair with sem %v <= theta was not skipped", u, v, ex.Sem)
			}
		}
	}
	if !sawCoupled {
		t.Fatal("no pair had coupled walks — test graph too sparse to exercise the estimator")
	}
}

// TestExplainSelfPair: sim(u,u) = 1 by definition with a degenerate
// interval.
func TestExplainSelfPair(t *testing.T) {
	g := randomGraph(41, 8, 20, false)
	m := randomMeasure(42, 8)
	ix, err := walk.Build(g, walk.Options{NumWalks: 50, Length: 8, Seed: 3})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	est, err := New(ix, m, Options{C: 0.6})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ex := est.Explain(3, 3)
	if ex.Score != 1 || ex.Sem != 1 || ex.CILow != 1 || ex.CIHigh != 1 {
		t.Fatalf("self pair: %+v", ex)
	}
	if !ex.Contains(1) {
		t.Error("degenerate interval must contain the score")
	}
}

// TestExplainCounterParity: Explain advances the shared pruning counters
// exactly as Query does, and additionally counts itself on
// semsim_explain_total.
func TestExplainCounterParity(t *testing.T) {
	g := randomGraph(51, 12, 40, true)
	m := randomMeasure(52, 12)
	ix, err := walk.Build(g, walk.Options{NumWalks: 100, Length: 10, Seed: 11})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	build := func() (*Estimator, *obs.Registry) {
		reg := obs.NewRegistry()
		est, err := New(ix, m, Options{C: 0.6, Theta: 0.1, Metrics: reg})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return est, reg
	}
	estQ, regQ := build()
	estE, regE := build()
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			estQ.QueryCost(hin.NodeID(u), hin.NodeID(v), nil)
			estE.Explain(hin.NodeID(u), hin.NodeID(v))
		}
	}
	sq, se := regQ.Snapshot(), regE.Snapshot()
	for _, name := range []string{
		"semsim_theta_sem_skips_total",
		"semsim_theta_walk_caps_total",
		"semsim_walks_coupled_total",
	} {
		if sq.Counters[name] != se.Counters[name] {
			t.Errorf("%s: Query run %d, Explain run %d", name, sq.Counters[name], se.Counters[name])
		}
	}
	n := int64(g.NumNodes() * g.NumNodes())
	if got := se.Counters["semsim_explain_total"]; got != n {
		t.Errorf("semsim_explain_total = %d, want %d", got, n)
	}
	if h := se.Histograms["semsim_explain_seconds"]; h.Count != n {
		t.Errorf("semsim_explain_seconds count = %d, want %d", h.Count, n)
	}
}

// TestExplainCacheAndKernelProvenance: SOCacheMode reflects the attached
// cache's storage mode.
func TestExplainCacheAndKernelProvenance(t *testing.T) {
	g := randomGraph(61, 10, 30, true)
	m := randomMeasure(62, 10)
	ix, err := walk.Build(g, walk.Options{NumWalks: 50, Length: 8, Seed: 13})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	noCache, err := New(ix, m, Options{C: 0.6})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if mode := noCache.Explain(0, 1).SOCacheMode; mode != "none" {
		t.Errorf("no cache: SOCacheMode = %q, want none", mode)
	}
	withCache, err := New(ix, m, Options{C: 0.6, Cache: NewSOCache(g, m, 0.1)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mode := withCache.Explain(0, 1).SOCacheMode
	if mode != "dense" && mode != "map" {
		t.Errorf("with cache: SOCacheMode = %q, want dense or map", mode)
	}
}
