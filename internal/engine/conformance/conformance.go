// Package conformance is the differential test harness every engine
// backend must pass: one reusable suite, driven from each backend's own
// test entry point, that checks a registered backend against the exact
// reference on randomized graphs, taxonomy-backed datasets and
// hand-verified golden fixtures.
//
// The contract it enforces, per backend:
//
//   - pairwise agreement with the exact fixpoint, under a per-backend
//     tolerance band: exact-capable backends (Caps().Exact) must agree
//     within ExactTol, except that a pruning backend (Caps().Prunes)
//     may drop pairs outright (score 0 with sem <= theta, the true
//     score bounded by min(sem, theta) — Theorem 3.5) and may
//     undershoot retained pairs by at most theta on top of ExactTol,
//     the propagated one-sided pruning loss of Prop 4.6; sampling
//     backends must land inside the CLT-derived MCTolerance band for
//     their walk count, widened one-sidedly by theta for the same
//     pruning loss;
//   - the paper's invariants: scores in [0,1], unit self-similarity,
//     symmetry, and the Prop 2.5 bound sim <= sem;
//   - result-shape contracts: TopK sorted descending with ascending-id
//     ties and no zeros, SingleSource ascending and complete, both
//     bit-identical to per-pair Query; QueryBatch positionally aligned
//     with Query;
//   - bounds validation: every entry point rejects out-of-range ids
//     with engine.ErrNodeOutOfRange, and batch errors name the pair;
//   - capability honesty: a backend without HasSingleSource returns
//     engine.ErrNoSingleSource; one with it enumerates;
//   - determinism: two backends built from the identical Config return
//     bit-identical scores and rankings.
//
// Call RunConformance(t, name) for each registered backend — or range
// over engine.Names(), which is what conformance_test.go does, so any
// future backend is covered the moment it registers.
package conformance

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"semsim/internal/engine"
	"semsim/internal/hin"
	"semsim/internal/semantic"
	"semsim/internal/walk"
)

// ExactTol is the agreement band between two exact-capable backends.
// They are independent solvers (Jacobi two-matrix vs in-place
// Gauss-Seidel vs the reduced pair graph), so bit-identity is not on
// the table; both run to residuals around 1e-9/1e-10, leaving three
// orders of magnitude of headroom under this band.
const ExactTol = 1e-6

// MCTolerance returns the CLT-derived agreement bands for a Monte-Carlo
// backend with nw walks per node: the mean absolute deviation over all
// pairs and the max absolute deviation of any single pair, both against
// the exact fixpoint.
//
// Per-walk contributions are importance-weighted, with an empirical
// standard deviation up to ~1 on the graphs generated here (the
// importance weights exceed 1, so the naive [0,1]-bounded sigma <= 0.5
// undershoots), giving a per-pair standard error of ~1/sqrt(nw). The
// mean band adds a 1.2x margin on that; the max band uses 4 sigma,
// covering the maximum over the few hundred pairs of a conformance
// graph with comfortable slack (at nw = 800 these evaluate to ~0.042
// and ~0.14 — the historical hand-tuned constants of the old
// equivalence suite, 0.03 and 0.12 at the same walk count, sat just
// inside them). Derived from nw, the bands stay meaningful when a
// suite changes its walk budget.
func MCTolerance(nw int) (meanTol, maxTol float64) {
	rt := math.Sqrt(float64(nw))
	return 1.2 / rt, 4 / rt
}

// Options tune the conformance run. The zero value is the standard
// suite; RunConformance uses it.
type Options struct {
	// Seeds are the random-dataset seeds (default 1, 2, 3).
	Seeds []int64
	// Nodes is the base node count of the random graphs; each seed
	// adds a small multiple so sizes vary (default 12).
	Nodes int
	// NumWalks and WalkLength size the walk index every backend's
	// Config carries (defaults 800 and 12 — enough walks that the
	// MCTolerance band is tight).
	NumWalks   int
	WalkLength int
	// C and Theta are the decay factor and pruning threshold
	// (defaults 0.6 and 0.05).
	C, Theta float64
}

func (o *Options) fill() {
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2, 3}
	}
	if o.Nodes == 0 {
		o.Nodes = 12
	}
	if o.NumWalks == 0 {
		o.NumWalks = 800
	}
	if o.WalkLength == 0 {
		o.WalkLength = 12
	}
	if o.C == 0 {
		o.C = 0.6
	}
	if o.Theta == 0 {
		o.Theta = 0.05
	}
}

// RunConformance runs the standard differential suite against the named
// registered backend. It is the one call a new backend's test file
// needs for full coverage.
func RunConformance(t *testing.T, backend string) {
	Run(t, backend, Options{})
}

// Run is RunConformance with explicit options.
func Run(t *testing.T, backend string, opts Options) {
	opts.fill()
	for _, seed := range opts.Seeds {
		seed := seed
		n := opts.Nodes + int(seed%4)*4
		t.Run(fmt.Sprintf("random/seed=%d", seed), func(t *testing.T) {
			g := RandomGraph(seed, n, 3*n)
			sem := RandomMeasure(seed+100, n, 0.1)
			runDataset(t, backend, g, sem, opts)
		})
	}
	t.Run("taxonomy", func(t *testing.T) {
		g, sem := TaxonomyGraph(t, opts.Seeds[0], 20)
		runDataset(t, backend, g, sem, opts)
	})
	t.Run("golden", func(t *testing.T) {
		runGolden(t, backend, opts)
	})
}

// buildConfig assembles the shared Config (walks + meet index) every
// backend constructs from.
func buildConfig(tb testing.TB, g *hin.Graph, sem semantic.Measure, opts Options) engine.Config {
	tb.Helper()
	ix, err := walk.Build(g, walk.Options{NumWalks: opts.NumWalks, Length: opts.WalkLength, Seed: 7})
	if err != nil {
		tb.Fatalf("walk.Build: %v", err)
	}
	return engine.Config{
		Graph: g, Sem: sem, C: opts.C, Theta: opts.Theta,
		Walks: ix, Meet: walk.BuildMeetIndex(ix),
	}
}

func mustNew(tb testing.TB, name string, cfg engine.Config) engine.Backend {
	tb.Helper()
	b, err := engine.New(name, cfg)
	if err != nil {
		tb.Fatalf("engine.New(%q): %v", name, err)
	}
	return b
}

// runDataset runs every check of the suite for one backend over one
// generated dataset, with the exact backend as the reference.
func runDataset(t *testing.T, backend string, g *hin.Graph, sem semantic.Measure, opts Options) {
	cfg := buildConfig(t, g, sem, opts)
	b := mustNew(t, backend, cfg)
	ref := mustNew(t, "exact", cfg)

	t.Run("invariants", func(t *testing.T) { checkInvariants(t, b, g, sem, opts) })
	t.Run("agreement", func(t *testing.T) { checkAgreement(t, b, ref, g, sem, opts) })
	t.Run("shapes", func(t *testing.T) { checkShapes(t, b, g) })
	t.Run("bounds", func(t *testing.T) { checkBounds(t, b, g) })
	t.Run("caps", func(t *testing.T) { checkCaps(t, backend, cfg) })
	t.Run("determinism", func(t *testing.T) { checkDeterminism(t, backend, cfg, g) })
}

// checkInvariants asserts the paper's structural properties on every
// pair: range [0,1], unit self-similarity, symmetry, and Prop 2.5
// (sim <= sem, with a sampling allowance for Monte-Carlo backends whose
// unclamped estimates can overshoot the bound).
func checkInvariants(t *testing.T, b engine.Backend, g *hin.Graph, sem semantic.Measure, opts Options) {
	n := g.NumNodes()
	exact := b.Caps().Exact
	_, maxTol := MCTolerance(opts.NumWalks)
	semSlack := 1e-9
	symTol := 0.0
	if !exact {
		semSlack = maxTol
		// Swapping arguments reorders the floating-point products of
		// the walk-scoring loop; the values are mathematically equal.
		symTol = 1e-12
	}
	for u := 0; u < n; u++ {
		su, err := b.Query(hin.NodeID(u), hin.NodeID(u), nil)
		if err != nil {
			t.Fatalf("Query(%d,%d): %v", u, u, err)
		}
		if su != 1 {
			t.Errorf("self-similarity sim(%d,%d) = %v, want 1", u, u, su)
		}
		for v := u + 1; v < n; v++ {
			s, err := b.Query(hin.NodeID(u), hin.NodeID(v), nil)
			if err != nil {
				t.Fatalf("Query(%d,%d): %v", u, v, err)
			}
			if s < 0 || s > 1 {
				t.Errorf("sim(%d,%d) = %v outside [0,1]", u, v, s)
			}
			rev, err := b.Query(hin.NodeID(v), hin.NodeID(u), nil)
			if err != nil {
				t.Fatalf("Query(%d,%d): %v", v, u, err)
			}
			if d := math.Abs(s - rev); d > symTol {
				t.Errorf("asymmetry at (%d,%d): %v vs %v", u, v, s, rev)
			}
			if bound := sem.Sim(hin.NodeID(u), hin.NodeID(v)) + semSlack; s > bound {
				t.Errorf("Prop 2.5 violated at (%d,%d): sim %v > sem bound %v", u, v, s, bound)
			}
		}
	}
}

// checkAgreement is the differential core: every pair's score against
// the exact reference, inside the backend's tolerance band.
func checkAgreement(t *testing.T, b, ref engine.Backend, g *hin.Graph, sem semantic.Measure, opts Options) {
	n := g.NumNodes()
	exact := b.Caps().Exact
	meanTol, maxTol := MCTolerance(opts.NumWalks)
	var devSum float64
	pairs := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			r, err := ref.Query(hin.NodeID(u), hin.NodeID(v), nil)
			if err != nil {
				t.Fatalf("exact.Query(%d,%d): %v", u, v, err)
			}
			s, err := b.Query(hin.NodeID(u), hin.NodeID(v), nil)
			if err != nil {
				t.Fatalf("%s.Query(%d,%d): %v", b.Name(), u, v, err)
			}
			semUV := sem.Sim(hin.NodeID(u), hin.NodeID(v))
			if exact {
				if b.Caps().Prunes && s == 0 && semUV <= opts.Theta {
					// The documented dropped-pair contract (reduced
					// backend): a zero is allowed only where the true
					// score is bounded by the pruning envelope.
					if env := math.Min(semUV, opts.Theta); r > env+1e-9 {
						t.Errorf("%s dropped (%d,%d) but exact score %v exceeds envelope %v",
							b.Name(), u, v, r, env)
					}
					continue
				}
				// A pruning backend's dropped pairs also bleed score
				// mass out of retained pairs: the loss is one-sided
				// and bounded by theta (Prop 4.6). Non-pruning exact
				// backends get the tight band on both sides.
				var pruneLoss float64
				if b.Caps().Prunes {
					pruneLoss = opts.Theta
				}
				if s-r > ExactTol {
					t.Errorf("%s overshoots exact at (%d,%d): %.9f vs %.9f",
						b.Name(), u, v, s, r)
				}
				if r-s > ExactTol+pruneLoss {
					t.Errorf("%s undershoots exact at (%d,%d): %.9f vs %.9f (band %.2e)",
						b.Name(), u, v, s, r, ExactTol+pruneLoss)
				}
				continue
			}
			// Sampling backend: CLT band above, CLT band plus the
			// one-sided theta pruning envelope below (sem-skips and
			// walk caps only ever lose score mass, Prop 4.6).
			if s-r > maxTol {
				t.Errorf("%s overshoots exact at (%d,%d): %v vs %v (band %v)",
					b.Name(), u, v, s, r, maxTol)
			}
			if r-s > maxTol+opts.Theta {
				t.Errorf("%s undershoots exact at (%d,%d): %v vs %v (band %v+theta)",
					b.Name(), u, v, s, r, maxTol)
			}
			devSum += math.Abs(s - r)
			pairs++
		}
	}
	if !exact && pairs > 0 {
		if mean := devSum / float64(pairs); mean > meanTol {
			t.Errorf("%s mean abs deviation %.4f > CLT band %.4f (nw=%d)",
				b.Name(), mean, meanTol, opts.NumWalks)
		}
	}
}

// checkShapes asserts the result-shape contracts of TopK, SingleSource
// and QueryBatch and their mutual consistency with Query.
func checkShapes(t *testing.T, b engine.Backend, g *hin.Graph) {
	n := g.NumNodes()
	for _, u := range []hin.NodeID{0, hin.NodeID(n / 2), hin.NodeID(n - 1)} {
		for _, k := range []int{1, 5, n + 10} {
			top, err := b.TopK(u, k, nil)
			if err != nil {
				t.Fatalf("TopK(%d,%d): %v", u, k, err)
			}
			if len(top) > k {
				t.Errorf("TopK(%d,%d) returned %d results", u, k, len(top))
			}
			for i, sc := range top {
				if sc.Score <= 0 {
					t.Errorf("TopK(%d,%d)[%d] has non-positive score %v", u, k, i, sc.Score)
				}
				if sc.Node == u {
					t.Errorf("TopK(%d,%d) includes the query node", u, k)
				}
				if i > 0 {
					prev := top[i-1]
					if sc.Score > prev.Score || (sc.Score == prev.Score && sc.Node < prev.Node) {
						t.Errorf("TopK(%d,%d) not ordered at %d: %+v after %+v", u, k, i, sc, prev)
					}
				}
				if q, _ := b.Query(u, sc.Node, nil); q != sc.Score {
					t.Errorf("TopK(%d,%d)[%d] score %v != Query %v", u, k, i, sc.Score, q)
				}
			}
		}
		if !b.Caps().HasSingleSource {
			continue
		}
		ss, err := b.SingleSource(u)
		if err != nil {
			t.Fatalf("SingleSource(%d): %v", u, err)
		}
		seen := make(map[hin.NodeID]float64, len(ss))
		for i, sc := range ss {
			if i > 0 && sc.Node <= ss[i-1].Node {
				t.Errorf("SingleSource(%d) not ascending at %d", u, i)
			}
			if sc.Score <= 0 || sc.Node == u {
				t.Errorf("SingleSource(%d) bad entry %+v", u, sc)
			}
			if q, _ := b.Query(u, sc.Node, nil); q != sc.Score {
				t.Errorf("SingleSource(%d) score for %d: %v != Query %v", u, sc.Node, sc.Score, q)
			}
			seen[sc.Node] = sc.Score
		}
		// Completeness: every nonzero Query target is enumerated.
		for v := 0; v < n; v++ {
			if hin.NodeID(v) == u {
				continue
			}
			q, _ := b.Query(u, hin.NodeID(v), nil)
			if _, ok := seen[hin.NodeID(v)]; q > 0 && !ok {
				t.Errorf("SingleSource(%d) misses node %d with score %v", u, v, q)
			}
		}
	}
	// QueryBatch aligns positionally with Query, self-pairs included.
	batch := [][2]hin.NodeID{{0, 1}, {2, 3}, {1, 0}, {hin.NodeID(n - 1), hin.NodeID(n - 1)}}
	got, err := b.QueryBatch(batch, 2)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	for i, p := range batch {
		want, _ := b.Query(p[0], p[1], nil)
		if got[i] != want {
			t.Errorf("QueryBatch[%d] = %v, Query = %v", i, got[i], want)
		}
	}
}

// checkBounds drives every entry point with out-of-range ids: each must
// return an error wrapping engine.ErrNodeOutOfRange, never panic.
func checkBounds(t *testing.T, b engine.Backend, g *hin.Graph) {
	bad := []hin.NodeID{-1, hin.NodeID(g.NumNodes()), 1 << 30}
	for _, u := range bad {
		if _, err := b.Query(u, 0, nil); !errors.Is(err, engine.ErrNodeOutOfRange) {
			t.Errorf("Query(%d,0) err = %v, want ErrNodeOutOfRange", u, err)
		}
		if _, err := b.Query(0, u, nil); !errors.Is(err, engine.ErrNodeOutOfRange) {
			t.Errorf("Query(0,%d) err = %v, want ErrNodeOutOfRange", u, err)
		}
		if _, err := b.TopK(u, 3, nil); !errors.Is(err, engine.ErrNodeOutOfRange) {
			t.Errorf("TopK(%d) err = %v, want ErrNodeOutOfRange", u, err)
		}
		if _, err := b.SingleSource(u); err == nil {
			t.Errorf("SingleSource(%d) accepted an out-of-range id", u)
		}
		if _, err := b.QueryBatch([][2]hin.NodeID{{0, 1}, {u, 2}}, 0); !errors.Is(err, engine.ErrNodeOutOfRange) {
			t.Errorf("QueryBatch err = %v, want ErrNodeOutOfRange", err)
		} else if !strings.Contains(err.Error(), "pair 1") {
			t.Errorf("QueryBatch error does not name the offending pair: %v", err)
		}
	}
	// Valid ids keep working after the rejections.
	if _, err := b.Query(0, 1, nil); err != nil {
		t.Errorf("Query(0,1) after rejections: %v", err)
	}
}

// checkCaps asserts the capability contract: what Caps() advertises is
// what the entry points do — including for the degraded construction
// without a meet index, where a sampling backend loses single-source.
func checkCaps(t *testing.T, backend string, cfg engine.Config) {
	b := mustNew(t, backend, cfg)
	if _, err := b.SingleSource(0); b.Caps().HasSingleSource != (err == nil) {
		t.Errorf("%s: HasSingleSource=%v but SingleSource err = %v",
			backend, b.Caps().HasSingleSource, err)
	}
	noMeet := cfg
	noMeet.Meet = nil
	b2 := mustNew(t, backend, noMeet)
	if !b2.Caps().HasSingleSource {
		if _, err := b2.SingleSource(0); !errors.Is(err, engine.ErrNoSingleSource) {
			t.Errorf("%s without meet index: SingleSource err = %v, want ErrNoSingleSource",
				backend, err)
		}
	}
}

// checkDeterminism builds the backend twice from the identical Config
// and requires bit-identical scores and rankings — the reproducibility
// half of the "exact-capable pairs are deterministic" contract, and for
// sampling backends the guarantee that one walk index means one answer.
func checkDeterminism(t *testing.T, backend string, cfg engine.Config, g *hin.Graph) {
	b1 := mustNew(t, backend, cfg)
	b2 := mustNew(t, backend, cfg)
	n := g.NumNodes()
	for u := 0; u < n; u++ {
		for v := u; v < n; v++ {
			s1, err1 := b1.Query(hin.NodeID(u), hin.NodeID(v), nil)
			s2, err2 := b2.Query(hin.NodeID(u), hin.NodeID(v), nil)
			if err1 != nil || err2 != nil {
				t.Fatalf("Query(%d,%d): %v / %v", u, v, err1, err2)
			}
			if s1 != s2 {
				t.Errorf("two identical builds disagree at (%d,%d): %v vs %v", u, v, s1, s2)
			}
		}
	}
	t1, err1 := b1.TopK(0, 10, nil)
	t2, err2 := b2.TopK(0, 10, nil)
	if err1 != nil || err2 != nil {
		t.Fatalf("TopK: %v / %v", err1, err2)
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Errorf("two identical builds rank differently:\n%v\nvs\n%v", t1, t2)
	}
}
