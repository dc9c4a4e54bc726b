package semsim

// Tests for the engine layer's public surface: IndexOptions.Backend /
// AutoPlan, the Backends() listing, bounds-validated entry points, and
// the acceptance invariant that planner-routed queries return results
// bit-identical to the caller-chosen paths.

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"semsim/internal/datagen"
)

func TestFacadeBackendSelection(t *testing.T) {
	g, tax := buildSample(t)
	lin := NewLin(tax)
	exact, err := Exact(g, lin, ExactOptions{C: 0.6, MaxIterations: 50})
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}

	names := Backends()
	for _, want := range []string{"mc", "reduced", "exact"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Backends() = %v, missing %q", names, want)
		}
	}

	a, b := g.MustNode("a"), g.MustNode("b")
	base := IndexOptions{NumWalks: 200, WalkLength: 10, Theta: 0.05, Seed: 3}

	// The exact backend serves converged fixpoint scores through the
	// same Index facade.
	opts := base
	opts.Backend = "exact"
	idx, err := BuildIndex(g, lin, opts)
	if err != nil {
		t.Fatalf("BuildIndex exact: %v", err)
	}
	if idx.Backend() != "exact" {
		t.Errorf("Backend() = %q, want exact", idx.Backend())
	}
	if got, want := idx.Query(a, b), exact.Scores.At(a, b); math.Abs(got-want) > 1e-6 {
		t.Errorf("exact backend Query = %v, facade Exact = %v", got, want)
	}
	if _, err := idx.SingleSource(a); err != nil {
		t.Errorf("exact backend SingleSource: %v", err)
	}

	// The reduced backend is exact for retained pairs; co-authors a,b
	// have sem well above theta, so their score matches the fixpoint.
	opts = base
	opts.Backend = "reduced"
	ridx, err := BuildIndex(g, lin, opts)
	if err != nil {
		t.Fatalf("BuildIndex reduced: %v", err)
	}
	if got, want := ridx.Query(a, b), exact.Scores.At(a, b); math.Abs(got-want) > 1e-6 {
		t.Errorf("reduced backend Query = %v, facade Exact = %v", got, want)
	}

	// Unknown backends fail the build with the alternatives listed.
	opts = base
	opts.Backend = "quantum"
	if _, err := BuildIndex(g, lin, opts); err == nil {
		t.Error("BuildIndex accepted an unknown backend")
	} else if !strings.Contains(err.Error(), "mc") {
		t.Errorf("unknown-backend error does not list alternatives: %v", err)
	}
}

// TestFacadeAutoPlanIdentity is the acceptance invariant of the adaptive
// planner: with AutoPlan on, query results are bit-identical to the
// caller-chosen paths on an identically-built index, and the planner's
// decisions surface in Snapshot().
func TestFacadeAutoPlanIdentity(t *testing.T) {
	g, tax := buildSample(t)
	lin := NewLin(tax)
	base := IndexOptions{
		NumWalks: 300, WalkLength: 10, Theta: 0.05, SLINGCutoff: 0.1,
		Seed: 4, MeetIndex: true,
	}
	plain, err := BuildIndex(g, lin, base)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	opts := base
	opts.AutoPlan = true
	opts.Metrics = NewMetrics()
	planned, err := BuildIndex(g, lin, opts)
	if err != nil {
		t.Fatalf("BuildIndex autoplan: %v", err)
	}

	for v := 0; v < g.NumNodes(); v++ {
		u := NodeID(v)
		a, b := plain.TopK(u, 5), planned.TopK(u, 5)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("planner-routed TopK differs from caller-chosen at u=%d:\n%v\nvs\n%v", u, b, a)
		}
	}

	snap := planned.Snapshot()
	var total int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "semsim_plan_total{") {
			total += v
		}
	}
	if want := int64(g.NumNodes()); total != want {
		t.Errorf("Snapshot shows %d planner decisions, want %d", total, want)
	}
}

// TestAutoPlanWithoutMeetIndexIsBrute: without a meet index the planner
// falls back to the brute scan, never the sem-bounded one. Prop 2.5
// bounds the exact score (sim <= sem), not Algorithm 1's estimate: on
// the serving benchmark's graph with serve's options, item-85's top
// estimate, 0.219, belongs to a node whose sem is 0.076, and the
// sem-bounded scan cuts it.
func TestAutoPlanWithoutMeetIndexIsBrute(t *testing.T) {
	d, err := datagen.Amazon(datagen.AmazonConfig{Items: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tax, err := BuildTaxonomy(d.Graph, TaxonomyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lin := NewLin(tax)
	opts := IndexOptions{NumWalks: 150, WalkLength: 15, C: 0.6, Theta: 0.05,
		SLINGCutoff: 0.1, Seed: 1, Parallel: true}
	brute, err := BuildIndex(d.Graph, lin, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.AutoPlan = true
	auto, err := BuildIndex(d.Graph, lin, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := auto.PlanStrategy(1); got != "brute" {
		t.Fatalf("plan without a meet index = %q, want brute", got)
	}
	u := d.Graph.MustNode("item-85")
	want := brute.TopK(u, 1)
	if len(want) != 1 {
		t.Fatalf("brute top-1 of item-85 = %v", want)
	}
	if got := auto.TopK(u, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("AutoPlan top-1 of item-85 = %v, brute = %v", got, want)
	}
	if sb := auto.TopKSemBounded(u, 1); reflect.DeepEqual(sb, want) {
		t.Fatalf("the sem-bounded scan returns brute's %v: the fixture no longer has an estimate above its sem", want)
	}
}

// TestFacadeBoundsValidation pins the shim contracts: BatchQuery and
// SingleSource surface validation errors, Query/TopK stay non-panicking
// on malformed IDs (returning the documented zero values).
func TestFacadeBoundsValidation(t *testing.T) {
	g, tax := buildSample(t)
	idx, err := BuildIndex(g, NewLin(tax), IndexOptions{
		NumWalks: 100, WalkLength: 8, Seed: 5, MeetIndex: true,
	})
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	n := NodeID(g.NumNodes())

	if _, err := idx.BatchQuery([][2]NodeID{{0, 1}, {n, 0}}, 0); err == nil {
		t.Error("BatchQuery accepted an out-of-range node id")
	} else if !strings.Contains(err.Error(), "pair 1") {
		t.Errorf("BatchQuery error does not identify the offending pair: %v", err)
	}
	if _, err := idx.BatchQuery([][2]NodeID{{0, -1}}, 0); err == nil {
		t.Error("BatchQuery accepted a negative node id")
	}
	got, err := idx.BatchQuery([][2]NodeID{{0, 1}}, 0)
	if err != nil || len(got) != 1 {
		t.Errorf("valid BatchQuery failed: %v %v", got, err)
	}

	if _, err := idx.SingleSource(n); err == nil {
		t.Error("SingleSource accepted an out-of-range node id")
	}
	if s := idx.Query(n, 0); s != 0 {
		t.Errorf("Query with bad id = %v, want 0", s)
	}
	if s := idx.Query(0, -3); s != 0 {
		t.Errorf("Query with negative id = %v, want 0", s)
	}
	if top := idx.TopK(n, 3); top != nil {
		t.Errorf("TopK with bad id = %v, want nil", top)
	}
}
