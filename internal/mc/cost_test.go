package mc

import (
	"bytes"
	"math"
	"testing"

	"semsim/internal/hin"
	"semsim/internal/obs"
	"semsim/internal/rank"
	"semsim/internal/walk"
)

// TestCostAccumulatorNeutral: a nil and a non-nil cost accumulator are
// the two routes through each query shape's one loop. Two fresh
// estimators over the same walks, one driven with nil and one with a
// Cost, must give bit-identical answers from every shape and leave
// their SO caches with equal counters.
func TestCostAccumulatorNeutral(t *testing.T) {
	const n = 18
	g := randomGraph(41, n, 80, true)
	m := randomMeasure(42, n)
	ix, err := walk.Build(g, walk.Options{NumWalks: 60, Length: 8, Seed: 11})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	var v3 bytes.Buffer
	if _, err := ix.WriteTo(&v3); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	// The lazy twin of ix reads the same walks through its block cache.
	lazy, err := walk.OpenLazy(bytes.NewReader(v3.Bytes()), int64(v3.Len()), g, walk.LazyOptions{})
	if err != nil {
		t.Fatalf("OpenLazy: %v", err)
	}
	defer lazy.Close()

	// The 0.5 cutoff leaves some pairs of randomMeasure's [0.1, 1]
	// range unstored, so the map caches miss on every visit to those.
	cases := []struct {
		name  string
		walks *walk.Index
		cache func() *SOCache // a fresh cache per estimator
	}{
		{"no-cache", ix, func() *SOCache { return nil }},
		{"map-warm", ix, func() *SOCache {
			c := NewSOCache(g, m, 0.5)
			c.Precompute()
			return c
		}},
		{"dense", ix, func() *SOCache {
			c := NewSOCache(g, m, 0.5)
			if !c.EnableDense(0, 1) {
				t.Fatal("EnableDense refused a tiny graph")
			}
			return c
		}},
		{"lazy", lazy, func() *SOCache { return NewSOCache(g, m, 0.5) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newEst := func() *Estimator {
				e, err := New(tc.walks, m, Options{C: 0.6, Theta: 0.3, Cache: tc.cache(), Workers: 1})
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				return e
			}
			plain, costed := newEst(), newEst()
			meet := walk.BuildMeetIndex(tc.walks)
			var co obs.Cost
			for u := 0; u < n; u++ {
				U := hin.NodeID(u)
				for v := 0; v < n; v++ {
					V := hin.NodeID(v)
					want := plain.QueryCost(U, V, nil)
					if got := costed.QueryCost(U, V, &co); !sameBits(got, want) {
						t.Fatalf("QueryCost(%d,%d): costed %v, plain %v", u, v, got, want)
					}
					if got := plain.Explain(U, V).Score; !sameBits(got, want) {
						t.Fatalf("Explain(%d,%d).Score = %v, QueryCost %v", u, v, got, want)
					}
					if got := costed.Explain(U, V).Score; !sameBits(got, want) {
						t.Fatalf("costed Explain(%d,%d).Score = %v, QueryCost %v", u, v, got, want)
					}
				}
				for _, k := range []int{3, n} {
					sameScored(t, "TopKCost", plain.TopKCost(U, k, nil), costed.TopKCost(U, k, &co))
					sameScored(t, "TopKSemBoundedCost",
						plain.TopKSemBoundedCost(U, k, nil), costed.TopKSemBoundedCost(U, k, &co))
					sameScored(t, "TopKWithIndexCost",
						plain.TopKWithIndexCost(U, k, meet, nil), costed.TopKWithIndexCost(U, k, meet, &co))
				}
				sameScored(t, "SingleSourceCost",
					plain.SingleSourceCost(U, meet, nil), costed.SingleSourceCost(U, meet, &co))
			}
			if co.Pairs == 0 || co.WalkSteps == 0 || co.SemSkips == 0 {
				t.Fatalf("costed estimator charged nothing: %+v", co)
			}
			if plain.Cache() != nil {
				if p, c := plain.Cache().Summary(), costed.Cache().Summary(); p != c {
					t.Fatalf("SO cache counters differ: plain %+v, costed %+v", p, c)
				}
			}
			if tc.name != "dense" {
				return
			}
			// With every SO read from the dense table, a repeated costed
			// call does the same work.
			for _, shape := range []struct {
				name string
				run  func(co *obs.Cost)
			}{
				{"QueryCost", func(co *obs.Cost) { costed.QueryCost(2, 5, co) }},
				{"TopKCost", func(co *obs.Cost) { costed.TopKCost(2, 5, co) }},
				{"TopKSemBoundedCost", func(co *obs.Cost) { costed.TopKSemBoundedCost(2, 5, co) }},
				{"TopKWithIndexCost", func(co *obs.Cost) { costed.TopKWithIndexCost(2, 5, meet, co) }},
				{"SingleSourceCost", func(co *obs.Cost) { costed.SingleSourceCost(2, meet, co) }},
			} {
				var first, again obs.Cost
				shape.run(&first)
				shape.run(&again)
				if first != again || first.Pairs == 0 {
					t.Fatalf("%s: repeated cost %+v, first %+v", shape.name, again, first)
				}
			}
		})
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameScored fails unless got and want hold the same nodes with
// bit-identical scores, in the same order.
func sameScored(t *testing.T, shape string, want, got []rank.Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: costed returned %d results, plain %d", shape, len(got), len(want))
	}
	for i := range want {
		if got[i].Node != want[i].Node || !sameBits(got[i].Score, want[i].Score) {
			t.Fatalf("%s rank %d: costed %v, plain %v", shape, i, got[i], want[i])
		}
	}
}
