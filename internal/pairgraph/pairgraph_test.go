package pairgraph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"semsim/internal/core"
	"semsim/internal/hin"
	"semsim/internal/semantic"
)

func randomGraph(seed int64, n, m int) *hin.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := hin.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(name3(i), "t")
	}
	for i := 0; i < m; i++ {
		b.AddEdge(hin.NodeID(rng.Intn(n)), hin.NodeID(rng.Intn(n)), "e", 0.5+rng.Float64())
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
			s := 0.05 + 0.95*rng.Float64()
			vals[u*n+v] = s
			vals[v*n+u] = s
		}
	}
	return semantic.Func{N: "random", F: func(u, v hin.NodeID) float64 {
		return vals[int(u)*n+int(v)]
	}}
}

func TestMakePairCanonical(t *testing.T) {
	if MakePair(5, 2) != (Pair{2, 5}) || MakePair(2, 5) != (Pair{2, 5}) {
		t.Fatal("MakePair not canonical")
	}
	if !MakePair(3, 3).Singleton() || MakePair(1, 2).Singleton() {
		t.Fatal("Singleton misclassified")
	}
}

func TestTransitionsAreDistribution(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(seed, 10, 40)
		m := randomMeasure(seed+1, 10)
		for u := 0; u < 10; u++ {
			for v := u + 1; v < 10; v++ {
				trs := NewNormalizer(g, m).Transitions(Pair{hin.NodeID(u), hin.NodeID(v)})
				if len(trs) == 0 {
					continue
				}
				var sum float64
				for _, tr := range trs {
					if tr.Prob <= 0 {
						return false
					}
					if tr.To != MakePair(tr.To.U, tr.To.V) {
						return false // non-canonical target
					}
					sum += tr.Prob
				}
				if math.Abs(sum-1) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSingletonHasNoTransitions(t *testing.T) {
	g := randomGraph(1, 8, 30)
	m := randomMeasure(2, 8)
	if trs := NewNormalizer(g, m).Transitions(Pair{3, 3}); trs != nil {
		t.Fatalf("singleton transitions = %v, want nil", trs)
	}
}

// TestExample32 reproduces the SARW probabilities of Example 3.2: from
// (A,B), moving to (Canada,USA) has probability 0.8/2.2 = 0.36 and to
// (Author,USA) probability 0.2/2.2 = 0.09, using the published Lin values.
func TestExample32(t *testing.T) {
	b := hin.NewBuilder()
	a := b.AddNode("A", "author")
	bb := b.AddNode("B", "author")
	canada := b.AddNode("Canada", "country")
	usa := b.AddNode("USA", "country")
	author := b.AddNode("Author", "category")
	// Reversed-surfing orientation: attributes point at their authors.
	b.AddEdge(canada, a, "country", 1)
	b.AddEdge(author, a, "is-a", 1)
	b.AddEdge(usa, bb, "country", 1)
	b.AddEdge(author, bb, "is-a", 1)
	g := b.MustBuild()

	m := semantic.NewOverride(semantic.Func{N: "base", F: func(u, v hin.NodeID) float64 {
		if u == v {
			return 1
		}
		return 0.5
	}})
	m.Set(canada, usa, 0.8)
	m.Set(canada, author, 0.2)
	m.Set(author, usa, 0.2)

	trs := NewNormalizer(g, m).Transitions(Pair{a, bb})
	got := map[Pair]float64{}
	for _, tr := range trs {
		got[tr.To] = tr.Prob
	}
	if p := got[MakePair(canada, usa)]; math.Abs(p-0.8/2.2) > 1e-9 {
		t.Errorf("P[(A,B)->(Canada,USA)] = %v, want %v", p, 0.8/2.2)
	}
	if p := got[MakePair(author, usa)]; math.Abs(p-0.2/2.2) > 1e-9 {
		t.Errorf("P[(A,B)->(Author,USA)] = %v, want %v", p, 0.2/2.2)
	}
	if p := got[MakePair(author, author)]; math.Abs(p-1.0/2.2) > 1e-9 {
		t.Errorf("P[(A,B)->(Author,Author)] = %v, want %v", p, 1.0/2.2)
	}
}

// TestTheorem33 checks that the random-surfer scores over G^2 equal the
// iterative SemSim scores, per iteration, on random weighted graphs.
func TestTheorem33(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(seed, 9, 30)
		m := randomMeasure(seed+7, 9)
		for _, k := range []int{1, 3, 6} {
			full := NewFull(g, m)
			surfer, err := full.Scores(0.6, k)
			if err != nil {
				return false
			}
			iter, err := core.Iterative(g, m, core.IterOptions{C: 0.6, MaxIterations: k})
			if err != nil {
				return false
			}
			for u := 0; u < 9; u++ {
				for v := 0; v < 9; v++ {
					a := surfer.At(hin.NodeID(u), hin.NodeID(v))
					b := iter.Scores.At(hin.NodeID(u), hin.NodeID(v))
					if math.Abs(a-b) > 1e-10 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestFullCounts(t *testing.T) {
	g := randomGraph(3, 7, 25)
	f := NewFull(g, semantic.Uniform{})
	if got := f.NumNodes(); got != 49 {
		t.Errorf("NumNodes = %d, want 49", got)
	}
	if got := f.NumEdges(); got != int64(g.NumEdges())*int64(g.NumEdges()) {
		t.Errorf("NumEdges = %d, want m^2 = %d", got, g.NumEdges()*g.NumEdges())
	}
}

func TestFullScoresValidation(t *testing.T) {
	g := randomGraph(4, 5, 10)
	f := NewFull(g, semantic.Uniform{})
	if _, err := f.Scores(1.0, 3); err == nil {
		t.Error("want error for c = 1")
	}
	if _, err := f.Scores(0.6, 0); err == nil {
		t.Error("want error for 0 iterations")
	}
}

// TestTheorem35 checks s_theta(u,v) = sim(u,v) for retained pairs.
func TestTheorem35(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		g := randomGraph(seed, 10, 35)
		m := randomMeasure(seed+11, 10)
		full := NewFull(g, m)
		exact, err := full.Scores(0.6, 40)
		if err != nil {
			t.Fatalf("Scores: %v", err)
		}
		red, err := Reduce(g, m, ReduceOptions{C: 0.6, Theta: 0.3, BypassDepth: 20, MinProb: 1e-14})
		if err != nil {
			t.Fatalf("Reduce: %v", err)
		}
		if err := red.Solve(60, 1e-12); err != nil {
			t.Fatalf("Solve: %v", err)
		}
		for u := 0; u < 10; u++ {
			for v := u + 1; v < 10; v++ {
				if !red.Contains(hin.NodeID(u), hin.NodeID(v)) {
					if m.Sim(hin.NodeID(u), hin.NodeID(v)) > 0.3 {
						t.Fatalf("seed %d: retained pair (%d,%d) missing", seed, u, v)
					}
					continue
				}
				got := red.Score(hin.NodeID(u), hin.NodeID(v))
				want := exact.At(hin.NodeID(u), hin.NodeID(v))
				if got > want+1e-9 {
					t.Errorf("seed %d: s_theta(%d,%d) = %v exceeds exact %v", seed, u, v, got, want)
				}
				if math.Abs(got-want) > 5e-3 {
					t.Errorf("seed %d: s_theta(%d,%d) = %v, want %v (diff %v)",
						seed, u, v, got, want, math.Abs(got-want))
				}
			}
		}
	}
}

func TestReducedDroppedPairScoresZero(t *testing.T) {
	g := randomGraph(5, 8, 25)
	m := randomMeasure(17, 8)
	red, err := Reduce(g, m, ReduceOptions{C: 0.6, Theta: 0.9, BypassDepth: 4, MinProb: 1e-8})
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if err := red.Solve(30, 1e-10); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	found := false
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			if m.Sim(hin.NodeID(u), hin.NodeID(v)) <= 0.9 {
				found = true
				if got := red.Score(hin.NodeID(u), hin.NodeID(v)); got != 0 {
					t.Errorf("dropped pair (%d,%d) scored %v, want 0", u, v, got)
				}
			}
		}
	}
	if !found {
		t.Skip("no dropped pairs at theta=0.9")
	}
	if got := red.Score(2, 2); got != 1 {
		t.Errorf("Score(v,v) = %v, want 1", got)
	}
}

func TestReducedShrinksWithTheta(t *testing.T) {
	g := randomGraph(6, 12, 50)
	m := randomMeasure(23, 12)
	f := NewFull(g, m)
	var prevNodes int64 = math.MaxInt64
	for _, theta := range []float64{0.3, 0.6, 0.9} {
		red, err := Reduce(g, m, ReduceOptions{C: 0.6, Theta: theta, BypassDepth: 4, MinProb: 1e-8})
		if err != nil {
			t.Fatalf("Reduce: %v", err)
		}
		nodes := red.NumNodesOrdered()
		if nodes > f.NumNodes() {
			t.Errorf("theta=%v: reduced nodes %d exceed full %d", theta, nodes, f.NumNodes())
		}
		if nodes > prevNodes {
			t.Errorf("theta=%v: node count %d grew from %d", theta, nodes, prevNodes)
		}
		prevNodes = nodes
		if red.NumEdgesOrdered() < 0 {
			t.Errorf("negative edge count")
		}
	}
}

func TestReduceValidation(t *testing.T) {
	g := randomGraph(7, 5, 10)
	m := semantic.Uniform{}
	cases := []ReduceOptions{
		{C: 0, Theta: 0.5},
		{C: 1.0, Theta: 0.5},
		{C: 0.6, Theta: 0},
		{C: 0.6, Theta: 1},
		{C: 0.6, Theta: 0.5, BypassDepth: -1},
	}
	for i, opts := range cases {
		if _, err := Reduce(g, m, opts); err == nil {
			t.Errorf("case %d: Reduce accepted invalid options %+v", i, opts)
		}
	}
	red, err := Reduce(g, m, ReduceOptions{C: 0.6, Theta: 0.5})
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if err := red.Solve(0, 0); err == nil {
		t.Error("Solve accepted 0 iterations")
	}
}

func TestScoreBeforeSolvePanics(t *testing.T) {
	g := randomGraph(8, 5, 10)
	red, err := Reduce(g, semantic.Uniform{}, ReduceOptions{C: 0.6, Theta: 0.5})
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Score before Solve did not panic")
		}
	}()
	red.Score(0, 1)
}

func TestPathStatsChainGraph(t *testing.T) {
	// x -> a, x -> b: pair (a,b) has exactly one transition, to the
	// singleton (x,x); one path of length 1.
	b := hin.NewBuilder()
	x := b.AddNode("x", "t")
	a := b.AddNode("a", "t")
	bb := b.AddNode("b", "t")
	b.AddEdge(x, a, "e", 1)
	b.AddEdge(x, bb, "e", 1)
	g := b.MustBuild()
	m := semantic.Uniform{}

	f := NewFull(g, m)
	st := f.PathStats(50, 6, 100, 1)
	if st.SampledPairs == 0 {
		t.Fatal("no pairs sampled")
	}
	// Pairs involving x have no in-neighbors on one side: zero paths;
	// the (a,b) pair has exactly one path of length 1.
	if st.AvgLen != 0 && math.Abs(st.AvgLen-1) > 1e-9 {
		t.Errorf("AvgLen = %v, want 1 (all first-hit paths have one edge)", st.AvgLen)
	}

	red, err := Reduce(g, m, ReduceOptions{C: 0.6, Theta: 0.5})
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	rst := red.PathStats(6, 100)
	// Uniform sem keeps every pair; (a,b), (x,a), (x,b) are non-singleton.
	if rst.SampledPairs != 3 {
		t.Errorf("reduced sampled pairs = %d, want 3", rst.SampledPairs)
	}
	if math.Abs(rst.AvgLen-1) > 1e-9 {
		t.Errorf("reduced AvgLen = %v, want 1", rst.AvgLen)
	}
}

// TestReducedUniformKeepsEverything: with Uniform sem and theta < 1 every
// pair is retained, so the reduced graph scores must equal the full ones
// essentially exactly (no bypass, no drain beyond dead ends).
func TestReducedUniformKeepsEverything(t *testing.T) {
	g := randomGraph(9, 9, 30)
	m := semantic.Uniform{}
	full := NewFull(g, m)
	exact, err := full.Scores(0.6, 50)
	if err != nil {
		t.Fatalf("Scores: %v", err)
	}
	red, err := Reduce(g, m, ReduceOptions{C: 0.6, Theta: 0.99})
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if err := red.Solve(80, 1e-13); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for u := 0; u < 9; u++ {
		for v := u + 1; v < 9; v++ {
			got := red.Score(hin.NodeID(u), hin.NodeID(v))
			want := exact.At(hin.NodeID(u), hin.NodeID(v))
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("(%d,%d): reduced %v != full %v", u, v, got, want)
			}
		}
	}
}

// TestPairsAboveMatchesExact: the similarity join returns exactly the
// pairs the full fixpoint scores at or above the cutoff.
func TestPairsAboveMatchesExact(t *testing.T) {
	g := randomGraph(12, 10, 35)
	m := randomMeasure(13, 10)
	exactRes, err := core.Iterative(g, m, core.IterOptions{C: 0.6, MaxIterations: 40})
	if err != nil {
		t.Fatalf("core.Iterative: %v", err)
	}
	red, err := Reduce(g, m, ReduceOptions{C: 0.6, Theta: 0.2, BypassDepth: 20, MinProb: 1e-14})
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if err := red.Solve(80, 1e-12); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	const cutoff = 0.3
	got, err := red.PairsAbove(cutoff)
	if err != nil {
		t.Fatalf("PairsAbove: %v", err)
	}
	want := map[[2]hin.NodeID]float64{}
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			if s := exactRes.Scores.At(hin.NodeID(u), hin.NodeID(v)); s >= cutoff {
				want[[2]hin.NodeID{hin.NodeID(u), hin.NodeID(v)}] = s
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("join returned %d pairs, want %d", len(got), len(want))
	}
	for i, p := range got {
		w, ok := want[[2]hin.NodeID{p.U, p.V}]
		if !ok {
			t.Fatalf("unexpected pair %v", p)
		}
		if math.Abs(p.Score-w) > 5e-3 {
			t.Errorf("pair (%d,%d): join score %v, exact %v", p.U, p.V, p.Score, w)
		}
		if i > 0 && got[i].Score > got[i-1].Score {
			t.Error("join not sorted descending")
		}
	}
	// minScore <= theta is rejected (completeness would be broken).
	if _, err := red.PairsAbove(0.1); err == nil {
		t.Error("PairsAbove accepted minScore <= theta")
	}
	// Before Solve.
	red2, err := Reduce(g, m, ReduceOptions{C: 0.6, Theta: 0.2})
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if _, err := red2.PairsAbove(0.3); err == nil {
		t.Error("PairsAbove before Solve should error")
	}
}
