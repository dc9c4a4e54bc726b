package mc

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"semsim/internal/core"
	"semsim/internal/hin"
	"semsim/internal/obs"
	"semsim/internal/semantic"
	"semsim/internal/simrank"
	"semsim/internal/walk"
)

func randomGraph(seed int64, n, m int, weighted bool) *hin.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := hin.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(name3(i), "t")
	}
	added := make(map[[2]int]bool)
	for len(added) < m {
		f, t := rng.Intn(n), rng.Intn(n)
		if added[[2]int{f, t}] {
			continue
		}
		added[[2]int{f, t}] = true
		w := 1.0
		if weighted {
			w = 0.5 + rng.Float64()
		}
		b.AddEdge(hin.NodeID(f), hin.NodeID(t), "e", w)
	}
	return b.MustBuild()
}

func name3(i int) string {
	return string([]rune{rune('a' + i%26), rune('a' + (i/26)%26), rune('a' + (i/676)%26)})
}

func randomMeasure(seed int64, n int) semantic.Measure {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n*n)
	for u := 0; u < n; u++ {
		vals[u*n+u] = 1
		for v := u + 1; v < n; v++ {
			s := 0.1 + 0.9*rng.Float64()
			vals[u*n+v] = s
			vals[v*n+u] = s
		}
	}
	return semantic.Func{N: "random", F: func(u, v hin.NodeID) float64 {
		return vals[int(u)*n+int(v)]
	}}
}

// TestUnbiasedness (Prop 4.4 / Eq 4): averaging the IS estimator over many
// independent walk indexes converges to the exact fixpoint score.
func TestUnbiasedness(t *testing.T) {
	g := randomGraph(3, 8, 24, true)
	m := randomMeasure(4, 8)
	exact, err := core.Iterative(g, m, core.IterOptions{C: 0.6, MaxIterations: 30})
	if err != nil {
		t.Fatalf("core.Iterative: %v", err)
	}
	const rebuilds = 40
	pairs := [][2]hin.NodeID{{0, 1}, {2, 5}, {3, 7}, {1, 6}}
	sums := make([]float64, len(pairs))
	for r := 0; r < rebuilds; r++ {
		ix, err := walk.Build(g, walk.Options{NumWalks: 200, Length: 15, Seed: int64(1000 + r)})
		if err != nil {
			t.Fatalf("walk.Build: %v", err)
		}
		est, err := New(ix, m, Options{C: 0.6})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for i, p := range pairs {
			sums[i] += est.Query(p[0], p[1])
		}
	}
	for i, p := range pairs {
		got := sums[i] / rebuilds
		want := exact.Scores.At(p[0], p[1])
		if math.Abs(got-want) > 0.025 {
			t.Errorf("pair %v: mean estimate %v, exact %v", p, got, want)
		}
	}
}

// TestUniformDegeneratesToSimRankMC: with Uniform semantics and a
// simple unit-weight graph, Algorithm 1's IS ratio is exactly 1, so the
// estimate must coincide with the SimRank MC estimate on the same index.
func TestUniformDegeneratesToSimRankMC(t *testing.T) {
	g := randomGraph(9, 12, 40, false)
	ix, err := walk.Build(g, walk.Options{NumWalks: 100, Length: 10, Seed: 7})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	est, err := New(ix, semantic.Uniform{}, Options{C: 0.6})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srmc, err := simrank.NewMC(ix, 0.6)
	if err != nil {
		t.Fatalf("NewMC: %v", err)
	}
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			a := est.Query(hin.NodeID(u), hin.NodeID(v))
			b := srmc.Query(hin.NodeID(u), hin.NodeID(v))
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("(%d,%d): SemSim(Uniform) MC %v != SimRank MC %v", u, v, a, b)
			}
		}
	}
}

func TestQuerySelfAndRange(t *testing.T) {
	g := randomGraph(11, 10, 35, true)
	m := randomMeasure(12, 10)
	ix, err := walk.Build(g, walk.Options{NumWalks: 50, Length: 8, Seed: 2})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	est, err := New(ix, m, Options{C: 0.6})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := est.Query(4, 4); got != 1 {
		t.Errorf("Query(v,v) = %v, want 1", got)
	}
	for u := 0; u < 10; u++ {
		for v := 0; v < 10; v++ {
			s := est.Query(hin.NodeID(u), hin.NodeID(v))
			if s < 0 || s > 1 {
				t.Fatalf("Query(%d,%d) = %v outside [0,1]", u, v, s)
			}
		}
	}
}

// TestPruning checks Prop 4.6 empirically: pruned and unpruned estimates
// differ by at most theta (plus slack for the rare per-walk cap
// violations), semantically distant pairs score exactly 0, and pruned
// scores stay in [0,1] for theta <= 1-c (Lemma 4.7).
func TestPruning(t *testing.T) {
	g := randomGraph(13, 12, 45, true)
	m := randomMeasure(14, 12)
	ix, err := walk.Build(g, walk.Options{NumWalks: 150, Length: 15, Seed: 3})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	theta := 0.05
	plain, err := New(ix, m, Options{C: 0.6})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pruned, err := New(ix, m, Options{C: 0.6, Theta: theta})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for u := 0; u < 12; u++ {
		for v := 0; v < 12; v++ {
			a, b := hin.NodeID(u), hin.NodeID(v)
			sp := pruned.Query(a, b)
			if sp < 0 || sp > 1 {
				t.Fatalf("pruned score %v outside [0,1]", sp)
			}
			if u != v && m.Sim(a, b) <= theta && sp != 0 {
				t.Errorf("sem(%d,%d) <= theta but pruned score = %v", u, v, sp)
			}
			if diff := math.Abs(sp - plain.Query(a, b)); diff > theta+0.02 {
				t.Errorf("(%d,%d): pruning changed score by %v > theta %v", u, v, diff, theta)
			}
		}
	}
}

func TestSOCacheConsistency(t *testing.T) {
	g := randomGraph(15, 10, 40, true)
	m := randomMeasure(16, 10)
	ix, err := walk.Build(g, walk.Options{NumWalks: 80, Length: 10, Seed: 5})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	plain, err := New(ix, m, Options{C: 0.6, Theta: 0.05})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cache := NewSOCache(g, m, 0.1)
	cached, err := New(ix, m, Options{C: 0.6, Theta: 0.05, Cache: cache})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for u := 0; u < 10; u++ {
		for v := 0; v < 10; v++ {
			a := plain.Query(hin.NodeID(u), hin.NodeID(v))
			b := cached.Query(hin.NodeID(u), hin.NodeID(v))
			if a != b {
				t.Fatalf("(%d,%d): cached %v != plain %v", u, v, b, a)
			}
		}
	}
	hits, misses := cache.Stats()
	if hits == 0 {
		t.Error("cache recorded no hits across repeated queries")
	}
	_ = misses
	if cache.MemoryBytes() != int64(cache.Len())*32 {
		t.Error("MemoryBytes inconsistent with Len")
	}
}

func TestSOCachePrecompute(t *testing.T) {
	g := randomGraph(17, 8, 25, true)
	m := randomMeasure(18, 8)
	cache := NewSOCache(g, m, 0.5)
	cache.Precompute()
	want := 0
	for u := 0; u < 8; u++ {
		for v := u; v < 8; v++ {
			if m.Sim(hin.NodeID(u), hin.NodeID(v)) >= 0.5 {
				want++
			}
		}
	}
	if cache.Len() != want {
		t.Errorf("Precompute stored %d pairs, want %d", cache.Len(), want)
	}
	// Below-cutoff queries are computed but not stored.
	before := cache.Len()
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			if m.Sim(hin.NodeID(u), hin.NodeID(v)) < 0.5 {
				cache.SO(hin.NodeID(u), hin.NodeID(v))
			}
		}
	}
	if cache.Len() != before {
		t.Error("below-cutoff pairs were stored")
	}
}

func TestSOCacheDefaultCutoff(t *testing.T) {
	g := randomGraph(19, 5, 10, false)
	c := NewSOCache(g, semantic.Uniform{}, 0)
	if c.cutoff != DefaultSOCutoff {
		t.Errorf("cutoff = %v, want %v", c.cutoff, DefaultSOCutoff)
	}
}

func TestNaiveSamplerApproximatesExact(t *testing.T) {
	g := randomGraph(21, 8, 24, true)
	m := randomMeasure(22, 8)
	exact, err := core.Iterative(g, m, core.IterOptions{C: 0.6, MaxIterations: 30})
	if err != nil {
		t.Fatalf("core.Iterative: %v", err)
	}
	ns, err := NewNaiveSampler(g, m, 0.6, 3000, 15, 9)
	if err != nil {
		t.Fatalf("NewNaiveSampler: %v", err)
	}
	for _, p := range [][2]hin.NodeID{{0, 1}, {2, 5}, {3, 7}} {
		got := ns.Query(p[0], p[1])
		want := exact.Scores.At(p[0], p[1])
		if math.Abs(got-want) > 0.03 {
			t.Errorf("pair %v: naive %v, exact %v", p, got, want)
		}
	}
	if got := ns.Query(3, 3); got != 1 {
		t.Errorf("naive Query(v,v) = %v, want 1", got)
	}
}

func TestNaiveSamplerStorageQuadratic(t *testing.T) {
	ns, err := NewNaiveSampler(randomGraph(23, 4, 8, false), semantic.Uniform{}, 0.6, 150, 15, 1)
	if err != nil {
		t.Fatalf("NewNaiveSampler: %v", err)
	}
	s1 := ns.PrecomputeStorageBytes(1000)
	s2 := ns.PrecomputeStorageBytes(2000)
	if s2 != 4*s1 {
		t.Errorf("doubling n must quadruple storage: %d -> %d", s1, s2)
	}
	if s1 != int64(1000)*1000*150*16*4 {
		t.Errorf("storage formula off: %d", s1)
	}
}

func TestValidation(t *testing.T) {
	g := randomGraph(25, 5, 10, false)
	ix, err := walk.Build(g, walk.Options{NumWalks: 5, Length: 4, Seed: 1})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	if _, err := New(ix, semantic.Uniform{}, Options{C: 0}); err == nil {
		t.Error("want error for c = 0")
	}
	if _, err := New(ix, semantic.Uniform{}, Options{C: 1}); err == nil {
		t.Error("want error for c = 1")
	}
	if _, err := New(ix, semantic.Uniform{}, Options{C: 0.6, Theta: 1}); err == nil {
		t.Error("want error for theta = 1")
	}
	if _, err := New(ix, semantic.Uniform{}, Options{C: 0.6, Theta: -0.1}); err == nil {
		t.Error("want error for negative theta")
	}
	if _, err := NewNaiveSampler(g, semantic.Uniform{}, 1.2, 10, 5, 1); err == nil {
		t.Error("want error for naive c > 1")
	}
	if _, err := NewNaiveSampler(g, semantic.Uniform{}, 0.6, 0, 5, 1); err == nil {
		t.Error("want error for naive numWalks = 0")
	}
}

func TestTopK(t *testing.T) {
	g := randomGraph(27, 15, 60, true)
	m := randomMeasure(28, 15)
	ix, err := walk.Build(g, walk.Options{NumWalks: 100, Length: 10, Seed: 6})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	est, err := New(ix, m, Options{C: 0.6})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	top := est.TopK(0, 4)
	if len(top) > 4 {
		t.Fatalf("TopK returned %d entries", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatalf("TopK not sorted: %v", top)
		}
	}
	for _, s := range top {
		if s.Node == 0 {
			t.Error("TopK included the query node")
		}
		if got := est.Query(0, s.Node); got != s.Score {
			t.Errorf("TopK score mismatch for node %d: %v vs %v", s.Node, s.Score, got)
		}
	}
}

// TestSingleSourceMatchesQuery: the inverted-index enumeration returns
// exactly the per-candidate Query results for every node with a nonzero
// estimate.
func TestSingleSourceMatchesQuery(t *testing.T) {
	g := randomGraph(31, 16, 70, true)
	m := randomMeasure(32, 16)
	ix, err := walk.Build(g, walk.Options{NumWalks: 80, Length: 10, Seed: 8})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	meet := walk.BuildMeetIndex(ix)
	for _, theta := range []float64{0, 0.05} {
		est, err := New(ix, m, Options{C: 0.6, Theta: theta})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for u := 0; u < g.NumNodes(); u++ {
			got := map[hin.NodeID]float64{}
			for _, s := range est.SingleSource(hin.NodeID(u), meet) {
				got[s.Node] = s.Score
			}
			for v := 0; v < g.NumNodes(); v++ {
				if v == u {
					continue
				}
				want := est.Query(hin.NodeID(u), hin.NodeID(v))
				if want == 0 {
					if _, ok := got[hin.NodeID(v)]; ok {
						t.Fatalf("theta=%v u=%d v=%d: single-source reported zero-score node", theta, u, v)
					}
					continue
				}
				if g2, ok := got[hin.NodeID(v)]; !ok || g2 != want {
					t.Fatalf("theta=%v u=%d v=%d: single-source %v, Query %v", theta, u, v, g2, want)
				}
			}
		}
	}
}

func TestTopKWithIndexMatchesTopK(t *testing.T) {
	g := randomGraph(33, 14, 60, true)
	m := randomMeasure(34, 14)
	ix, err := walk.Build(g, walk.Options{NumWalks: 60, Length: 8, Seed: 9})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	meet := walk.BuildMeetIndex(ix)
	est, err := New(ix, m, Options{C: 0.6})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for u := 0; u < g.NumNodes(); u++ {
		brute := est.TopK(hin.NodeID(u), 5)
		fast := est.TopKWithIndex(hin.NodeID(u), 5, meet)
		if len(brute) != len(fast) {
			t.Fatalf("u=%d: lengths %d vs %d", u, len(brute), len(fast))
		}
		for i := range brute {
			if brute[i] != fast[i] {
				t.Fatalf("u=%d rank %d: %v vs %v", u, i, brute[i], fast[i])
			}
		}
	}
}

// TestTopKWithIndexCostMeetCells: a collision top-k charges one meet
// cell per live position of u's walks, the cells its enumeration reads,
// and answers exactly like the uncosted call.
func TestTopKWithIndexCostMeetCells(t *testing.T) {
	g := randomGraph(33, 14, 60, true)
	ix, err := walk.Build(g, walk.Options{NumWalks: 60, Length: 8, Seed: 9})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	meet := walk.BuildMeetIndex(ix)
	est, err := New(ix, randomMeasure(34, 14), Options{C: 0.6})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for u := 0; u < g.NumNodes(); u++ {
		var want int64
		for i := 0; i < ix.NumWalks(); i++ {
			want += int64(ix.WalkLen(hin.NodeID(u), i))
		}
		var co obs.Cost
		got := est.TopKWithIndexCost(hin.NodeID(u), 5, meet, &co)
		if co.MeetCells != want {
			t.Fatalf("u=%d: MeetCells = %d, want %d", u, co.MeetCells, want)
		}
		if !slices.Equal(got, est.TopKWithIndex(hin.NodeID(u), 5, meet)) {
			t.Fatalf("u=%d: costed top-k differs from TopKWithIndex", u)
		}
	}
}

// TestTopKSemBoundedMatchesTopK: the Prop 2.5 early-termination returns
// exactly the brute-force ranking.
func TestTopKSemBoundedMatchesTopK(t *testing.T) {
	g := randomGraph(35, 18, 80, true)
	m := randomMeasure(36, 18)
	ix, err := walk.Build(g, walk.Options{NumWalks: 80, Length: 10, Seed: 10})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	for _, theta := range []float64{0, 0.05} {
		est, err := New(ix, m, Options{C: 0.6, Theta: theta})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for u := 0; u < g.NumNodes(); u++ {
			for _, k := range []int{1, 3, 7} {
				brute := est.TopK(hin.NodeID(u), k)
				fast := est.TopKSemBounded(hin.NodeID(u), k)
				if len(brute) != len(fast) {
					t.Fatalf("theta=%v u=%d k=%d: lengths %d vs %d", theta, u, k, len(brute), len(fast))
				}
				for i := range brute {
					if brute[i].Score != fast[i].Score {
						t.Fatalf("theta=%v u=%d k=%d rank %d: %v vs %v",
							theta, u, k, i, brute[i], fast[i])
					}
				}
			}
		}
	}
}

func TestBatchQueryMatchesSerial(t *testing.T) {
	g := randomGraph(37, 20, 90, true)
	m := randomMeasure(38, 20)
	ix, err := walk.Build(g, walk.Options{NumWalks: 60, Length: 8, Seed: 11})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	var pairs [][2]hin.NodeID
	for u := 0; u < 20; u++ {
		for v := 0; v < 20; v++ {
			pairs = append(pairs, [2]hin.NodeID{hin.NodeID(u), hin.NodeID(v)})
		}
	}
	opts := Options{C: 0.6, Theta: 0.05, Cache: NewSOCache(g, m, 0.1)}
	serial, err := BatchQuery(ix, m, opts, pairs, 1)
	if err != nil {
		t.Fatalf("BatchQuery serial: %v", err)
	}
	parallel, err := BatchQuery(ix, m, opts, pairs, 4)
	if err != nil {
		t.Fatalf("BatchQuery parallel: %v", err)
	}
	for i := range pairs {
		if serial[i] != parallel[i] {
			t.Fatalf("pair %v: serial %v != parallel %v", pairs[i], serial[i], parallel[i])
		}
	}
	// Default workers path.
	def, err := BatchQuery(ix, m, opts, pairs, 0)
	if err != nil {
		t.Fatalf("BatchQuery default: %v", err)
	}
	if def[0] != serial[0] {
		t.Error("default-workers result differs")
	}
	// Invalid options surface.
	if _, err := BatchQuery(ix, m, Options{C: 2}, pairs, 2); err == nil {
		t.Error("want error for invalid options")
	}
}
