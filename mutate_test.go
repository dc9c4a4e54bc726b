package semsim_test

// Mutator tests: the executable form of the dynamic-graph contract.
//
//   - Conformance: a long run of randomized mutation batches, each
//     committed incrementally, must agree with a from-scratch exact
//     solve of the mutated graph within the Monte-Carlo tolerance of
//     the walk budget — the repair is indistinguishable from a rebuild.
//   - Isolation: queries racing with commits always observe exactly one
//     epoch's answers, bit-for-bit — never a torn mix (run with -race).
//   - Churn: concurrent mutators and queriers on one index; losers of
//     the commit race retry, readers never error, and the survivor
//     still conforms to the exact oracle.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"semsim"
	"semsim/internal/datagen"
	"semsim/internal/engine/conformance"
	"semsim/internal/hin"
)

// churnEnv is a mutable-index workbench over a synthetic Amazon graph.
type churnEnv struct {
	idx        *semsim.Index
	rng        *rand.Rand
	labels     []string // edge labels present in the seed graph
	nodeLabels []string
	nextName   int
}

func newChurnEnv(t *testing.T, items int, nw int, seed int64) *churnEnv {
	t.Helper()
	d, err := datagen.Amazon(datagen.AmazonConfig{Items: items, Seed: seed})
	if err != nil {
		t.Fatalf("datagen.Amazon: %v", err)
	}
	g := clampEdgeWeights(t, d.Graph, 1.5)
	idx, err := semsim.BuildIndex(g, d.Lin, semsim.IndexOptions{
		// Theta 0: pruning adds a one-sided bias that would smear the
		// conformance band; this suite measures repair fidelity only.
		NumWalks: nw, WalkLength: 10, C: 0.6, Theta: 0,
		SLINGCutoff: 0.1, WarmCache: true, Seed: seed, MeetIndex: true,
		Workers: 4,
	})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	e := &churnEnv{idx: idx, rng: rand.New(rand.NewSource(seed * 7))}
	seen := map[string]bool{}
	g.Edges(func(ed semsim.Edge) bool {
		if !seen[ed.Label] {
			seen[ed.Label] = true
			e.labels = append(e.labels, ed.Label)
		}
		return true
	})
	for v := 0; v < g.NumNodes(); v++ {
		l := g.NodeLabel(semsim.NodeID(v))
		if !seen["node:"+l] {
			seen["node:"+l] = true
			e.nodeLabels = append(e.nodeLabels, l)
		}
	}
	return e
}

// clampEdgeWeights rebuilds g with every edge weight capped at max,
// preserving node ids, labels and edge multiplicity. The Amazon
// generator draws Zipf repeat-purchase weights up to 20, and the MC
// estimator's uniform in-slot proposal gives a weight-w edge an
// importance ratio of ~w*deg per traversal: a single walk that rides a
// heavy edge twice can carry a weight in the hundreds, putting one
// estimate outside conformance.MCTolerance no matter how the walks were
// obtained (the band's sigma~1 derivation assumes near-uniform weights;
// see the MCTolerance comment). Conformance here measures repair
// fidelity, not estimator tail behavior, so the churn suite runs in the
// regime the band was derived for — the churn batches themselves add
// edges with weights in [0.5, 1.5].
func clampEdgeWeights(t *testing.T, g *semsim.Graph, max float64) *semsim.Graph {
	t.Helper()
	b := hin.NewBuilder()
	for v := 0; v < g.NumNodes(); v++ {
		b.AddNode(g.NodeName(semsim.NodeID(v)), g.NodeLabel(semsim.NodeID(v)))
	}
	g.Edges(func(e semsim.Edge) bool {
		w := e.Weight
		if w > max {
			w = max
		}
		b.AddEdge(e.From, e.To, e.Label, w)
		return true
	})
	clamped, err := b.Build()
	if err != nil {
		t.Fatalf("clampEdgeWeights: %v", err)
	}
	return clamped
}

// randomBatch fills m with ops mutations drawn over the current graph:
// edge inserts, edge removals, node additions (wired in with one or two
// edges) and concept-frequency updates.
func (e *churnEnv) randomBatch(m *semsim.Mutator, ops int) int {
	g := e.idx.Graph()
	n := g.NumNodes()
	var edges []semsim.Edge
	g.Edges(func(ed semsim.Edge) bool {
		edges = append(edges, ed)
		return true
	})
	applied := 0
	for applied < ops {
		switch e.rng.Intn(10) {
		case 0, 1, 2, 3: // add edge between existing nodes
			u := semsim.NodeID(e.rng.Intn(n))
			v := semsim.NodeID(e.rng.Intn(n))
			m.AddEdge(u, v, e.labels[e.rng.Intn(len(e.labels))], 0.5+e.rng.Float64())
			applied++
		case 4, 5, 6: // remove an existing edge
			ed := edges[e.rng.Intn(len(edges))]
			m.RemoveEdge(ed.From, ed.To, ed.Label)
			applied++
		case 7, 8: // add a node, wired to a random anchor
			name := "churn-" + string(rune('a'+e.nextName%26)) + "-" + itoa(e.nextName)
			e.nextName++
			id := m.AddNode(name, e.nodeLabels[e.rng.Intn(len(e.nodeLabels))])
			anchor := semsim.NodeID(e.rng.Intn(n))
			m.AddEdge(anchor, id, e.labels[e.rng.Intn(len(e.labels))], 1)
			m.AddEdge(id, anchor, e.labels[e.rng.Intn(len(e.labels))], 1)
			applied += 3
		default: // concept-frequency update
			m.UpdateConceptFreq(semsim.NodeID(e.rng.Intn(n)), 0.05+0.9*e.rng.Float64())
			applied++
		}
	}
	return applied
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// conformanceCheck compares the mutated index against a from-scratch
// exact fixpoint on the same graph and measure over sampled pairs.
// idx.Sem() hands the exact solver the index's semantic kernel, whose
// values the kernel-refresh property tests pin bit-identical to fresh.
func conformanceCheck(t *testing.T, idx *semsim.Index, rng *rand.Rand, nw, pairs int, tag string) {
	t.Helper()
	ref, err := semsim.BuildIndex(idx.Graph(), idx.Sem(), semsim.IndexOptions{
		NumWalks: 4, WalkLength: 2, C: 0.6, Theta: 0,
		Seed: 1, Backend: "exact", SemanticKernel: "off",
	})
	if err != nil {
		t.Fatalf("%s: exact reference build: %v", tag, err)
	}
	meanTol, maxTol := conformance.MCTolerance(nw)
	n := idx.Graph().NumNodes()
	var sum, worst float64
	for i := 0; i < pairs; i++ {
		u := semsim.NodeID(rng.Intn(n))
		v := semsim.NodeID(rng.Intn(n))
		got := idx.Query(u, v)
		want := ref.Query(u, v)
		d := got - want
		if d < 0 {
			d = -d
		}
		sum += d
		if d > worst {
			worst = d
		}
		if d > maxTol {
			t.Fatalf("%s: pair (%d,%d): mutated %v vs scratch %v, |diff| %v > maxTol %v",
				tag, u, v, got, want, d, maxTol)
		}
	}
	if mean := sum / float64(pairs); mean > meanTol {
		t.Fatalf("%s: mean |diff| %v > meanTol %v (worst %v)", tag, mean, meanTol, worst)
	}
}

// TestMutatorConformance commits >= 100 randomized mutations in batches
// with queries interleaved, checking after every batch that the
// incrementally repaired index agrees with a from-scratch build of the
// mutated graph within the walk budget's Monte-Carlo tolerance.
func TestMutatorConformance(t *testing.T) {
	const nw = 400
	e := newChurnEnv(t, 40, nw, 11)
	rng := rand.New(rand.NewSource(99))
	totalOps := 0
	for batch := 0; totalOps < 110; batch++ {
		m := e.idx.NewMutator()
		totalOps += e.randomBatch(m, 10)
		st, err := m.Commit()
		if err != nil {
			t.Fatalf("batch %d: Commit: %v", batch, err)
		}
		if st.Epoch != uint64(batch+1) {
			t.Fatalf("batch %d: epoch = %d, want %d", batch, st.Epoch, batch+1)
		}
		if e.idx.Epoch() != st.Epoch {
			t.Fatalf("batch %d: Epoch() = %d, want %d", batch, e.idx.Epoch(), st.Epoch)
		}
		// Interleaved query traffic on the fresh epoch (scores must be
		// valid similarities even before the conformance sweep).
		n := e.idx.Graph().NumNodes()
		for q := 0; q < 16; q++ {
			u, v := semsim.NodeID(rng.Intn(n)), semsim.NodeID(rng.Intn(n))
			if s := e.idx.Query(u, v); s < 0 || s > 1.0000001 {
				t.Fatalf("batch %d: Query(%d,%d) = %v out of [0,1]", batch, u, v, s)
			}
			if s := e.idx.Query(u, u); s != 1 {
				t.Fatalf("batch %d: Query(%d,%d) = %v, want 1", batch, u, u, s)
			}
		}
		conformanceCheck(t, e.idx, rng, nw, 120, "batch "+itoa(batch))
	}
	if totalOps < 100 {
		t.Fatalf("only %d mutations applied, want >= 100", totalOps)
	}
}

// TestMutatorSnapshotIsolation: readers hammering Query/TopK across a
// run of commits must observe, for every probe, a score bit-identical
// to SOME published epoch's answer — never a torn blend of two. Run
// with -race to also certify the memory model side.
func TestMutatorSnapshotIsolation(t *testing.T) {
	e := newChurnEnv(t, 50, 64, 21)
	const epochs = 5
	n0 := e.idx.Graph().NumNodes()
	pairs := make([][2]semsim.NodeID, 24)
	for i := range pairs {
		pairs[i] = [2]semsim.NodeID{semsim.NodeID(i * 3 % n0), semsim.NodeID((i*7 + 1) % n0)}
	}

	// epochVals[e][p]: the serial answer of epoch e for pair p,
	// recorded while no commit is in flight. Queries are deterministic
	// within an epoch, so these are the only legal observations.
	var mu sync.Mutex
	epochVals := make([][]float64, 0, epochs+1)
	record := func() {
		vals := make([]float64, len(pairs))
		for i, p := range pairs {
			vals[i] = e.idx.Query(p[0], p[1])
		}
		mu.Lock()
		epochVals = append(epochVals, vals)
		mu.Unlock()
	}
	record()

	type obs struct {
		pair  int
		score float64
	}
	var stop atomic.Bool
	const readers = 6
	observed := make([][]obs, readers)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				p := (i + w) % len(pairs)
				observed[w] = append(observed[w], obs{p, e.idx.Query(pairs[p][0], pairs[p][1])})
				// TopK rides along to cross-check the collision path
				// survives snapshot swaps (result checked for sanity only;
				// its per-epoch oracle would need the same bookkeeping).
				if i%64 == 0 {
					e.idx.TopK(pairs[p][0], 5)
				}
			}
		}(w)
	}

	for ep := 0; ep < epochs; ep++ {
		m := e.idx.NewMutator()
		// Edge-only batches keep every probe pair in range.
		e.randomEdgeBatch(m, 6)
		if _, err := m.Commit(); err != nil {
			t.Fatalf("epoch %d: Commit: %v", ep+1, err)
		}
		record()
	}
	stop.Store(true)
	wg.Wait()

	legal := func(p int, s float64) bool {
		for _, vals := range epochVals {
			if vals[p] == s {
				return true
			}
		}
		return false
	}
	total := 0
	for w := range observed {
		for _, o := range observed[w] {
			total++
			if !legal(o.pair, o.score) {
				t.Fatalf("reader %d observed torn score %v for pair %v (no epoch ever published it)",
					w, o.score, pairs[o.pair])
			}
		}
	}
	if total == 0 {
		t.Fatal("readers recorded no observations")
	}
}

// randomEdgeBatch is randomBatch restricted to edge inserts/removals on
// the existing node set (no growth, no semantic ops).
func (e *churnEnv) randomEdgeBatch(m *semsim.Mutator, ops int) {
	g := e.idx.Graph()
	n := g.NumNodes()
	var edges []semsim.Edge
	g.Edges(func(ed semsim.Edge) bool {
		edges = append(edges, ed)
		return true
	})
	for i := 0; i < ops; i++ {
		if e.rng.Intn(2) == 0 {
			u := semsim.NodeID(e.rng.Intn(n))
			v := semsim.NodeID(e.rng.Intn(n))
			m.AddEdge(u, v, e.labels[e.rng.Intn(len(e.labels))], 0.5+e.rng.Float64())
		} else {
			ed := edges[e.rng.Intn(len(edges))]
			m.RemoveEdge(ed.From, ed.To, ed.Label)
		}
	}
}

// TestMutatorChurnStress: several goroutines race NewMutator/Commit
// while queriers hammer the same index; stale losers replay. Afterwards
// the epoch count equals the successful commits and the survivor index
// still conforms to the exact oracle. The tier-2 -race run of this test
// is the concurrency certificate for the writer path.
func TestMutatorChurnStress(t *testing.T) {
	const nw = 200
	e := newChurnEnv(t, 40, nw, 31)
	n := e.idx.Graph().NumNodes()

	const writers, commitsPerWriter = 3, 4
	var committed atomic.Int64
	var stop atomic.Bool
	var readerWg, writerWg sync.WaitGroup
	errc := make(chan error, writers+8)

	// Queriers: mixed read traffic for the whole storm.
	for w := 0; w < 6; w++ {
		readerWg.Add(1)
		go func(w int) {
			defer readerWg.Done()
			for i := 0; !stop.Load(); i++ {
				u := semsim.NodeID((i*5 + w) % n)
				v := semsim.NodeID((i*11 + 3*w) % n)
				if s := e.idx.Query(u, v); s < 0 || s > 1.0000001 {
					select {
					case errc <- fmt.Errorf("Query(%d,%d) = %v out of range", u, v, s):
					default:
					}
					return
				}
				if i%32 == 0 {
					e.idx.TopK(u, 5)
					e.idx.CacheSummary()
				}
			}
		}(w)
	}

	// Writers: each commits commitsPerWriter edge-only batches,
	// replaying on ErrStaleMutator. A private rand per writer — the
	// churnEnv rng is not goroutine-safe.
	var emu sync.Mutex // guards e.rng/e.idx.Graph() edge scans in batch building
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for c := 0; c < commitsPerWriter; c++ {
				for {
					m := e.idx.NewMutator()
					emu.Lock()
					e.randomEdgeBatch(m, 4)
					emu.Unlock()
					_, err := m.Commit()
					if err == nil {
						committed.Add(1)
						break
					}
					if !errors.Is(err, semsim.ErrStaleMutator) {
						select {
						case errc <- err:
						default:
						}
						return
					}
				}
			}
		}(w)
	}

	writerWg.Wait()
	stop.Store(true)
	readerWg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if got, want := e.idx.Epoch(), uint64(committed.Load()); got != want {
		t.Fatalf("final epoch %d != successful commits %d", got, want)
	}
	if want := uint64(writers * commitsPerWriter); e.idx.Epoch() != want {
		t.Fatalf("final epoch %d, want %d", e.idx.Epoch(), want)
	}
	conformanceCheck(t, e.idx, rand.New(rand.NewSource(5)), nw, 100, "post-churn")
}

// TestMutatorValidation covers the error surface: duplicate names,
// semantic updates without a taxonomy, stale mutators, empty commits.
func TestMutatorValidation(t *testing.T) {
	e := newChurnEnv(t, 30, 32, 41)
	g := e.idx.Graph()

	t.Run("duplicate-name", func(t *testing.T) {
		m := e.idx.NewMutator()
		if id := m.AddNode(g.NodeName(0), g.NodeLabel(0)); id != -1 {
			t.Fatalf("AddNode(existing) = %d, want -1", id)
		}
		if _, err := m.Commit(); err == nil {
			t.Fatal("Commit accepted a duplicate node name")
		}
		m2 := e.idx.NewMutator()
		m2.AddNode("twin", g.NodeLabel(0))
		if id := m2.AddNode("twin", g.NodeLabel(0)); id != -1 {
			t.Fatalf("second AddNode(twin) = %d, want -1", id)
		}
		if _, err := m2.Commit(); err == nil {
			t.Fatal("Commit accepted an intra-batch duplicate")
		}
	})

	t.Run("concept-update-needs-taxonomy", func(t *testing.T) {
		d, err := datagen.Amazon(datagen.AmazonConfig{Items: 20, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := semsim.BuildIndex(d.Graph, semsim.UniformMeasure(), semsim.IndexOptions{
			NumWalks: 8, WalkLength: 4, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := idx.NewMutator()
		m.UpdateConceptFreq(0, 0.5)
		if _, err := m.Commit(); err == nil {
			t.Fatal("Commit accepted UpdateConceptFreq on a taxonomy-free measure")
		}
	})

	t.Run("stale-mutator", func(t *testing.T) {
		m1 := e.idx.NewMutator()
		m1.AddEdge(0, 1, e.labels[0], 1)
		m2 := e.idx.NewMutator()
		m2.AddEdge(1, 2, e.labels[0], 1)
		if _, err := m1.Commit(); err != nil {
			t.Fatalf("first Commit: %v", err)
		}
		if _, err := m2.Commit(); !errors.Is(err, semsim.ErrStaleMutator) {
			t.Fatalf("second Commit err = %v, want ErrStaleMutator", err)
		}
	})

	t.Run("empty-commit", func(t *testing.T) {
		before := e.idx.Epoch()
		st, err := e.idx.NewMutator().Commit()
		if err != nil {
			t.Fatalf("empty Commit: %v", err)
		}
		if st.Epoch != before || e.idx.Epoch() != before {
			t.Fatalf("empty Commit moved the epoch: %d -> %d", before, e.idx.Epoch())
		}
	})

	t.Run("prospective-id-edges", func(t *testing.T) {
		m := e.idx.NewMutator()
		a := m.AddNode("fresh-a", g.NodeLabel(0))
		b := m.AddNode("fresh-b", g.NodeLabel(0))
		m.AddEdge(a, b, e.labels[0], 1)
		m.AddEdge(0, a, e.labels[0], 1)
		st, err := m.Commit()
		if err != nil {
			t.Fatalf("Commit: %v", err)
		}
		if st.NewNodes != 2 {
			t.Fatalf("NewNodes = %d, want 2", st.NewNodes)
		}
		ng := e.idx.Graph()
		ga, ok := ng.NodeByName("fresh-a")
		if !ok || ga != a {
			t.Fatalf("fresh-a resolved to (%d,%v), want (%d,true)", ga, ok, a)
		}
		if s := e.idx.Query(a, b); s < 0 || s > 1 {
			t.Fatalf("Query on new nodes = %v", s)
		}
	})
}

// TestPinnedViewSurvivesCommit: a View pinned before a commit keeps its
// epoch's answers bit for bit — epoch, graph, pair scores, side-by-side
// SimRank, top-k, explanation and plan — after an edge and a node
// commit, while the Index answers the new epoch.
func TestPinnedViewSurvivesCommit(t *testing.T) {
	d, err := datagen.Amazon(datagen.AmazonConfig{Items: 40, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := semsim.BuildIndex(d.Graph, d.Lin, semsim.IndexOptions{
		NumWalks: 48, WalkLength: 8, C: 0.6, Theta: 0.05,
		SLINGCutoff: 0.1, WarmCache: true, Seed: 9,
		MeetIndex: true, AutoPlan: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	type answers struct {
		query, simrank []float64
		topk           [][]semsim.Scored
		explain        []semsim.Explanation
		strategy       string
	}
	p := idx.Pin()
	g, epoch := p.Graph(), p.Epoch()
	n := g.NumNodes()
	// Probe pairs that score above 0, from the fewest sources: the
	// commit below rewires the first source's in-neighbourhood, so it
	// moves some of their scores.
	var pairs [][2]semsim.NodeID
	for u := 0; u < n && len(pairs) < 16; u++ {
		for v := u + 1; v < n && len(pairs) < 16; v++ {
			if p.QueryCost(semsim.NodeID(u), semsim.NodeID(v), nil) > 0 {
				pairs = append(pairs, [2]semsim.NodeID{semsim.NodeID(u), semsim.NodeID(v)})
			}
		}
	}
	if len(pairs) < 16 {
		t.Fatalf("only %d pairs score above 0", len(pairs))
	}
	read := func(p semsim.View) answers {
		var a answers
		for _, pr := range pairs {
			var co semsim.Cost
			a.query = append(a.query, p.QueryCost(pr[0], pr[1], &co))
			a.simrank = append(a.simrank, p.SimRankQuery(pr[0], pr[1]))
			a.topk = append(a.topk, p.TopKCost(pr[0], 5, &co))
			ex, err := p.ExplainQuery(pr[0], pr[1])
			if err != nil {
				t.Fatal(err)
			}
			// Work counts and wall time describe one evaluation, not
			// the epoch's answer.
			ex.Cost, ex.ElapsedSeconds = semsim.Cost{}, 0
			a.explain = append(a.explain, *ex)
		}
		a.strategy = p.PlanStrategy(5)
		return a
	}
	before := read(p)

	var label string
	g.Edges(func(e semsim.Edge) bool { label = e.Label; return false })
	m := idx.NewMutator()
	nn := m.AddNode("pinned-view-probe", g.NodeLabel(pairs[0][0]))
	m.AddEdge(nn, pairs[0][0], label, 1)
	m.AddEdge(pairs[0][1], pairs[0][0], label, 1)
	st, err := m.Commit()
	if err != nil {
		t.Fatal(err)
	}

	if p.Epoch() != epoch || p.Graph() != g || p.Graph().NumNodes() != n {
		t.Fatalf("pinned view moved: epoch %d graph of %d nodes, want epoch %d and the pinned graph of %d",
			p.Epoch(), p.Graph().NumNodes(), epoch, n)
	}
	if _, ok := p.Graph().NodeByName("pinned-view-probe"); ok {
		t.Fatal("pinned view resolves a node added after it was pinned")
	}
	if after := read(p); !reflect.DeepEqual(before, after) {
		t.Fatalf("pinned view's answers changed across a commit:\nbefore %+v\nafter  %+v", before, after)
	}

	if idx.Epoch() != st.Epoch || st.Epoch != epoch+1 || idx.Graph().NumNodes() != n+1 {
		t.Fatalf("index at epoch %d with %d nodes, want epoch %d with %d", idx.Epoch(), idx.Graph().NumNodes(), epoch+1, n+1)
	}
	if cur := read(idx.Pin()); reflect.DeepEqual(before.query, cur.query) || reflect.DeepEqual(before.topk, cur.topk) {
		t.Fatal("the index still answers the pinned epoch after the commit")
	}
}
