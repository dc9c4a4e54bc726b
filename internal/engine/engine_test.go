package engine

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"semsim/internal/hin"
	"semsim/internal/obs"
	"semsim/internal/semantic"
	"semsim/internal/walk"
)

// testGraph builds a connected random multigraph with every node on at
// least one edge, so walks and reductions are nontrivial.
func testGraph(t testing.TB, seed int64, n, m int) *hin.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := hin.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(name3(i), "t")
	}
	// A ring guarantees connectivity and positive in-degree everywhere.
	for i := 0; i < n; i++ {
		b.AddEdge(hin.NodeID(i), hin.NodeID((i+1)%n), "e", 1)
	}
	added := make(map[[2]int]bool)
	for len(added) < m {
		f, v := rng.Intn(n), rng.Intn(n)
		if f == v || added[[2]int{f, v}] {
			continue
		}
		added[[2]int{f, v}] = true
		b.AddEdge(hin.NodeID(f), hin.NodeID(v), "e", 0.5+rng.Float64())
	}
	return b.MustBuild()
}

func name3(i int) string {
	return string([]rune{rune('a' + i%26), rune('a' + (i/26)%26), rune('a' + (i/676)%26)})
}

// testMeasure returns an admissible random measure with every off-diagonal
// similarity in [0.1, 1]: strictly above the default theta = 0.05, so the
// reduced backend retains every pair and Theorem 3.5 exactness covers the
// whole pair space.
func testMeasure(seed int64, n int) semantic.Measure {
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

// buildConfig assembles a full Config (walks + meet index) over the test
// graph, the substrate all three backends can build from.
func buildConfig(t testing.TB, g *hin.Graph, sem semantic.Measure) Config {
	t.Helper()
	ix, err := walk.Build(g, walk.Options{NumWalks: 120, Length: 10, Seed: 5})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	return Config{
		Graph: g, Sem: sem, C: 0.6, Theta: 0.05,
		Walks: ix, Meet: walk.BuildMeetIndex(ix),
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	for _, want := range []string{"mc", "reduced", "exact", "linear"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Names() = %v, missing %q", names, want)
		}
	}

	g := testGraph(t, 1, 12, 24)
	cfg := buildConfig(t, g, testMeasure(2, 12))

	// Empty name resolves to the default backend.
	b, err := New("", cfg)
	if err != nil {
		t.Fatalf(`New(""): %v`, err)
	}
	if b.Name() != DefaultBackend {
		t.Errorf(`New("").Name() = %q, want %q`, b.Name(), DefaultBackend)
	}

	// Unknown names fail with the alternatives listed.
	if _, err := New("linearized", cfg); err == nil {
		t.Error("New accepted an unregistered backend name")
	} else if !strings.Contains(err.Error(), "mc") {
		t.Errorf("unknown-backend error does not list alternatives: %v", err)
	}

	// Required config fields.
	if _, err := New("mc", Config{Sem: cfg.Sem, Walks: cfg.Walks}); err == nil {
		t.Error("New accepted a Config without Graph")
	}
	if _, err := New("mc", Config{Graph: g, Walks: cfg.Walks}); err == nil {
		t.Error("New accepted a Config without Sem")
	}

	// Duplicate registration is a wiring bug and panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Register allowed a duplicate backend name")
			}
		}()
		Register("mc", newMCBackend)
	}()
}

func TestCapabilities(t *testing.T) {
	g := testGraph(t, 3, 10, 20)
	cfg := buildConfig(t, g, testMeasure(4, 10))

	for _, tc := range []struct {
		name string
		mut  func(Config) Config
		want Capabilities
	}{
		{"mc", nil, Capabilities{HasSingleSource: true, Exact: false}},
		{"mc", func(c Config) Config { c.Meet = nil; return c }, Capabilities{}},
		{"reduced", nil, Capabilities{HasSingleSource: true, Exact: true, Prunes: true}},
		{"exact", nil, Capabilities{HasSingleSource: true, Exact: true}},
		{"linear", nil, Capabilities{HasSingleSource: true, Exact: true}},
	} {
		c := cfg
		if tc.mut != nil {
			c = tc.mut(c)
		}
		b, err := New(tc.name, c)
		if err != nil {
			t.Fatalf("New(%q): %v", tc.name, err)
		}
		if b.Caps() != tc.want {
			t.Errorf("%s caps = %+v, want %+v", tc.name, b.Caps(), tc.want)
		}
		if b.MemoryBytes() <= 0 {
			t.Errorf("%s MemoryBytes() = %d, want > 0", tc.name, b.MemoryBytes())
		}
	}
}

// TestBoundsValidation drives every entry point of every backend with
// out-of-range node IDs: each must return an error, never panic or index
// internal storage.
func TestBoundsValidation(t *testing.T) {
	g := testGraph(t, 5, 10, 20)
	cfg := buildConfig(t, g, testMeasure(6, 10))
	bad := []hin.NodeID{-1, hin.NodeID(g.NumNodes()), 1 << 30}

	for _, name := range []string{"mc", "reduced", "exact", "linear"} {
		b, err := New(name, cfg)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		for _, u := range bad {
			if _, err := b.Query(u, 0, nil); err == nil {
				t.Errorf("%s.Query(%d, 0) accepted an out-of-range id", name, u)
			}
			if _, err := b.Query(0, u, nil); err == nil {
				t.Errorf("%s.Query(0, %d) accepted an out-of-range id", name, u)
			}
			if _, err := b.TopK(u, 3, nil); err == nil {
				t.Errorf("%s.TopK(%d) accepted an out-of-range id", name, u)
			}
			if _, err := b.SingleSource(u); err == nil {
				t.Errorf("%s.SingleSource(%d) accepted an out-of-range id", name, u)
			}
			if _, err := b.QueryBatch([][2]hin.NodeID{{0, 1}, {u, 2}}, 0); err == nil {
				t.Errorf("%s.QueryBatch with pair (%d,2) accepted an out-of-range id", name, u)
			} else if !strings.Contains(err.Error(), "pair 1") {
				t.Errorf("%s.QueryBatch error does not identify the offending pair: %v", name, err)
			}
		}
		// Valid IDs keep working after the rejections.
		if _, err := b.Query(0, 1, nil); err != nil {
			t.Errorf("%s.Query(0, 1): %v", name, err)
		}
	}
}

func TestMCSingleSourceRequiresMeet(t *testing.T) {
	g := testGraph(t, 7, 10, 20)
	cfg := buildConfig(t, g, testMeasure(8, 10))
	cfg.Meet = nil
	b, err := New("mc", cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := b.SingleSource(0); !errors.Is(err, ErrNoSingleSource) {
		t.Errorf("SingleSource without meet index: err = %v, want ErrNoSingleSource", err)
	}
}

func TestExactBackendNodeCap(t *testing.T) {
	g := testGraph(t, 9, 12, 24)
	cfg := buildConfig(t, g, testMeasure(10, 12))
	cfg.MaxExactNodes = 8
	if _, err := New("exact", cfg); err == nil {
		t.Error("exact backend accepted a graph above MaxExactNodes")
	}
}

// stopAfter is a context whose Err reports context.Canceled from its
// (n+1)-th call on, counting the calls.
type stopAfter struct {
	context.Context
	n, calls int
}

func (c *stopAfter) Err() error {
	c.calls++
	if c.calls > c.n {
		return context.Canceled
	}
	return nil
}

// TestSolveStopsAtNextSweep: cancelling a construction stops the exact
// and linear solves at the next iteration boundary with the context's
// error. NewContext checks once before the factory and each solve once
// per iteration, so a context cancelled during the first iteration is
// seen exactly three times.
func TestSolveStopsAtNextSweep(t *testing.T) {
	g := testGraph(t, 11, 40, 120)
	cfg := buildConfig(t, g, testMeasure(12, 40))
	for _, name := range []string{"exact", "linear"} {
		ctx := &stopAfter{Context: context.Background(), n: 2}
		if _, err := NewContext(ctx, name, cfg); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if ctx.calls != 3 {
			t.Errorf("%s: checked the context %d times, want 3", name, ctx.calls)
		}
	}
}

func TestPlannerDecisions(t *testing.T) {
	cases := []struct {
		name  string
		stats Stats
		want  Strategy
	}{
		// Small graph, no meet index: brute wins.
		{"small no meet", Stats{Nodes: 20, NumWalks: 100, WalkLength: 10}, StrategyBrute},
		// Large graph, no meet index: brute, never the sem-bounded scan,
		// whose list can differ from brute's.
		{"large no meet", Stats{Nodes: 5000, NumWalks: 100, WalkLength: 10}, StrategyBrute},
		{"large no meet dense kernel", Stats{Nodes: 5000, NumWalks: 100, WalkLength: 10,
			DenseSemKernel: true}, StrategyBrute},
		// Short-lived walks: 2 cells per query plus as many
		// co-locations, far below 500,000 walk scans.
		{"sparse meet", Stats{Nodes: 5000, NumWalks: 100, WalkLength: 10,
			HasMeet: true, MeetEntries: 10_000}, StrategyCollision},
		// Walks that never stop on a tiny graph: u's 1,100 cells plus
		// as many co-locations, doubled, exceed 20 * 100 walk scans;
		// fall through to brute.
		{"dense meet small", Stats{Nodes: 20, NumWalks: 100, WalkLength: 10,
			HasMeet: true, MeetEntries: 20 * 100 * 11}, StrategyBrute},
		// The same walks on a slightly larger graph: still too small
		// for collision, so brute.
		{"dense meet small dense kernel", Stats{Nodes: 40, NumWalks: 100, WalkLength: 15,
			HasMeet: true, MeetEntries: 40 * 100 * 16, DenseSemKernel: true}, StrategyBrute},
		// The serving benchmark's shape (1,110 nodes, n_w 150, t 15,
		// every walk live): 2,400 cells and about as many co-locations,
		// doubled, against 166,500 walk scans.
		{"served graph", Stats{Nodes: 1110, NumWalks: 150, WalkLength: 15,
			HasMeet: true, MeetEntries: 1110 * 150 * 16, DenseSemKernel: true}, StrategyCollision},
		// A solved linearization beats everything while the graph is
		// within the solve's node budget — even when collision would
		// otherwise win.
		{"linear solved", Stats{Nodes: 2000, NumWalks: 100, WalkLength: 10,
			HasMeet: true, MeetEntries: 10_000, LinearSolved: true}, StrategyLinear},
		// Above the budget the planner must never route to linear, no
		// matter what LinearSolved claims: fall through to the usual
		// large-graph choice.
		{"linear above cap", Stats{Nodes: 5000, NumWalks: 100, WalkLength: 10,
			LinearSolved: true, LinearMaxNodes: 4096}, StrategyBrute},
		// An explicit budget below the default is honored.
		{"linear above custom cap", Stats{Nodes: 100, NumWalks: 100, WalkLength: 10,
			LinearSolved: true, LinearMaxNodes: 64}, StrategyBrute},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			p := NewPlanner(tc.stats, reg)
			got := p.TopKStrategy(10)
			if got != tc.want {
				t.Fatalf("TopKStrategy = %v, want %v", got, tc.want)
			}
			// Decisions are deterministic and counted.
			for i := 0; i < 4; i++ {
				if again := p.TopKStrategy(10); again != got {
					t.Fatalf("replanning the same stats gave %v then %v", got, again)
				}
			}
			snap := reg.Snapshot()
			key := `semsim_plan_total{strategy="` + got.String() + `"}`
			if snap.Counters[key] != 5 {
				t.Errorf("counter %s = %d, want 5", key, snap.Counters[key])
			}
		})
	}
}

// TestPlannerSingleSource pins the single-source routing table: a
// solved linearization wins inside its node budget, the inverted meet
// index wins otherwise, and the brute scan is the fallback. Decisions
// must be deterministic and land in the per-strategy counter.
func TestPlannerSingleSource(t *testing.T) {
	cases := []struct {
		name  string
		stats Stats
		want  Strategy
	}{
		{"linear solved", Stats{Nodes: 500, NumWalks: 100, WalkLength: 10,
			HasMeet: true, MeetEntries: 5000, LinearSolved: true}, StrategyLinear},
		{"linear above cap", Stats{Nodes: 5000, NumWalks: 100, WalkLength: 10,
			HasMeet: true, MeetEntries: 5000, LinearSolved: true, LinearMaxNodes: 4096},
			StrategyCollision},
		{"meet only", Stats{Nodes: 500, NumWalks: 100, WalkLength: 10,
			HasMeet: true, MeetEntries: 5000}, StrategyCollision},
		{"no meet", Stats{Nodes: 500, NumWalks: 100, WalkLength: 10}, StrategyBrute},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			p := NewPlanner(tc.stats, reg)
			got := p.SingleSourceStrategy()
			if got != tc.want {
				t.Fatalf("SingleSourceStrategy = %v, want %v", got, tc.want)
			}
			for i := 0; i < 4; i++ {
				if again := p.SingleSourceStrategy(); again != got {
					t.Fatalf("replanning the same stats gave %v then %v", got, again)
				}
			}
			snap := reg.Snapshot()
			key := `semsim_plan_total{strategy="` + got.String() + `"}`
			if snap.Counters[key] != 5 {
				t.Errorf("counter %s = %d, want 5", key, snap.Counters[key])
			}
		})
	}
}

func TestCollectStats(t *testing.T) {
	g := testGraph(t, 11, 16, 32)
	ix, err := walk.Build(g, walk.Options{NumWalks: 50, Length: 8, Seed: 3})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	meet := walk.BuildMeetIndex(ix)
	st := CollectStats(g, ix, meet)
	if st.Nodes != 16 || st.NumWalks != 50 || st.WalkLength != 8 {
		t.Errorf("stats dims = %+v", st)
	}
	if !st.HasMeet || st.MeetEntries <= 0 {
		t.Errorf("meet stats not collected: %+v", st)
	}
	if st.AvgInDegree <= 0 {
		t.Errorf("AvgInDegree = %v, want > 0", st.AvgInDegree)
	}
	// Without a meet index the collision path must be unreachable.
	st2 := CollectStats(g, ix, nil)
	if st2.HasMeet {
		t.Error("HasMeet set without a meet index")
	}
	p := NewPlanner(st2, nil)
	if s := p.TopKStrategy(10); s == StrategyCollision {
		t.Error("planner chose collision without a meet index")
	}
}
