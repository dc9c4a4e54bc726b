package engine

import (
	"reflect"
	"testing"

	"semsim/internal/hin"
	"semsim/internal/obs"
)

// The cross-backend equivalence property that used to live here (all
// backends compute the same scores within analytically derived
// tolerance bands) moved into the reusable differential harness at
// internal/engine/conformance, which additionally covers golden
// fixtures, invariants, shape and bounds contracts, and discovers
// registered backends by name. This file keeps only the planner-side
// identity property, which needs the package-internal StrategyRunner.

// TestStrategyIdentity asserts the planner's core invariant: every top-k
// execution strategy of the mc backend returns the identical result —
// same nodes, same order, bit-identical scores — so the planner can pick
// freely on cost alone. The planner-attached backend must reproduce the
// same list too.
func TestStrategyIdentity(t *testing.T) {
	n := 24
	g := testGraph(t, 17, n, 72)
	sem := testMeasure(18, n)
	cfg := buildConfig(t, g, sem)

	b, err := New("mc", cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	runner, ok := b.(StrategyRunner)
	if !ok {
		t.Fatal("mc backend does not implement StrategyRunner")
	}

	reg := obs.NewRegistry()
	planned := cfg
	planned.Planner = NewPlanner(CollectStats(g, cfg.Walks, cfg.Meet), reg)
	pb, err := New("mc", planned)
	if err != nil {
		t.Fatalf("New with planner: %v", err)
	}

	for u := 0; u < n; u++ {
		for _, k := range []int{1, 5, 10} {
			ref, err := runner.TopKWithStrategy(hin.NodeID(u), k, StrategyBrute)
			if err != nil {
				t.Fatalf("brute TopK: %v", err)
			}
			for _, s := range []Strategy{StrategySemBounded, StrategyCollision} {
				got, err := runner.TopKWithStrategy(hin.NodeID(u), k, s)
				if err != nil {
					t.Fatalf("%v TopK: %v", s, err)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("strategy %v differs from brute at u=%d k=%d:\n%v\nvs\n%v",
						s, u, k, got, ref)
				}
			}
			adaptive, err := pb.TopK(hin.NodeID(u), k, nil)
			if err != nil {
				t.Fatalf("planned TopK: %v", err)
			}
			if !reflect.DeepEqual(ref, adaptive) {
				t.Fatalf("planner-routed TopK differs at u=%d k=%d:\n%v\nvs\n%v",
					u, k, adaptive, ref)
			}
		}
	}

	// Every query planned through one deterministic choice: exactly one
	// strategy counter carries all the decisions.
	snap := reg.Snapshot()
	var total, nonzero int64
	for s := Strategy(0); s < numStrategies; s++ {
		v := snap.Counters[`semsim_plan_total{strategy="`+s.String()+`"}`]
		total += v
		if v > 0 {
			nonzero++
		}
	}
	if want := int64(n * 3); total != want {
		t.Errorf("planner counted %d decisions, want %d", total, want)
	}
	if nonzero != 1 {
		t.Errorf("planner split identical queries across %d strategies", nonzero)
	}

	// Unknown strategies are rejected, not silently brute-forced.
	if _, err := runner.TopKWithStrategy(0, 5, numStrategies); err == nil {
		t.Error("TopKWithStrategy accepted an unknown strategy")
	}
}
