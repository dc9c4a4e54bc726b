package conformance

import (
	"math"
	"testing"

	"semsim/internal/engine"
	"semsim/internal/hin"
	"semsim/internal/walk"
)

// fuzzNumWalks is the walk budget of the fuzz harness — smaller than
// the main suite's so each input stays cheap, with the CLT band widened
// to match (MCTolerance derives from it).
const fuzzNumWalks = 400

// fuzzAgreement builds the mc, linear and exact backends over one
// seed-derived random graph and fails on out-of-tolerance disagreement:
// linear vs exact within ExactTol, mc vs exact within the CLT band for
// the fuzz walk budget. The raw fuzz inputs are folded into valid
// dimensions, so every mutation exercises the solvers instead of the
// argument validation.
func fuzzAgreement(t *testing.T, seed int64, rawN, rawM uint8) {
	n := 8 + int(rawN)%17    // 8..24 nodes
	m := n + int(rawM)%(2*n) // n..3n-1 extra edges
	g := RandomGraph(seed, n, m)
	sem := RandomMeasure(seed+1000, n, 0.1)
	ix, err := walk.Build(g, walk.Options{NumWalks: fuzzNumWalks, Length: 10, Seed: seed + 2000})
	if err != nil {
		t.Fatalf("walk.Build: %v", err)
	}
	cfg := engine.Config{
		Graph: g, Sem: sem, C: 0.6, Theta: 0.05,
		Walks: ix, Meet: walk.BuildMeetIndex(ix),
	}
	ex := mustNew(t, "exact", cfg)
	lin := mustNew(t, "linear", cfg)
	mc := mustNew(t, "mc", cfg)

	meanTol, maxTol := MCTolerance(fuzzNumWalks)
	var devSum float64
	pairs := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			r, err := ex.Query(hin.NodeID(u), hin.NodeID(v), nil)
			if err != nil {
				t.Fatalf("exact.Query(%d,%d): %v", u, v, err)
			}
			l, err := lin.Query(hin.NodeID(u), hin.NodeID(v), nil)
			if err != nil {
				t.Fatalf("linear.Query(%d,%d): %v", u, v, err)
			}
			if d := math.Abs(l - r); d > ExactTol {
				t.Errorf("seed %d n=%d m=%d: linear vs exact differ at (%d,%d): %.9f vs %.9f",
					seed, n, m, u, v, l, r)
			}
			e, err := mc.Query(hin.NodeID(u), hin.NodeID(v), nil)
			if err != nil {
				t.Fatalf("mc.Query(%d,%d): %v", u, v, err)
			}
			if e-r > maxTol || r-e > maxTol+0.05 {
				t.Errorf("seed %d n=%d m=%d: mc vs exact out of band at (%d,%d): %.4f vs %.4f",
					seed, n, m, u, v, e, r)
			}
			devSum += math.Abs(e - r)
			pairs++
		}
	}
	if mean := devSum / float64(pairs); mean > meanTol {
		t.Errorf("seed %d n=%d m=%d: mc mean abs deviation %.4f > %.4f",
			seed, n, m, mean, meanTol)
	}
}

// FuzzBackendAgreement is the differential fuzzer of the engine layer:
// arbitrary (seed, size, density) triples become random graphs pushed
// through three independent solvers — the Jacobi fixpoint, the
// Gauss-Seidel linearization and the Monte-Carlo estimator — which
// must agree within their analytical tolerance bands. The seed corpus
// below runs as plain unit tests on every `go test -run Fuzz`
// (ci.sh's fuzz tier); open-ended mutation needs -fuzz.
func FuzzBackendAgreement(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(24))
	f.Add(int64(2), uint8(9), uint8(7))
	f.Add(int64(3), uint8(16), uint8(40))
	f.Add(int64(42), uint8(0), uint8(0))
	f.Add(int64(-7), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, rawN, rawM uint8) {
		fuzzAgreement(t, seed, rawN, rawM)
	})
}

// TestFuzzSeedsPassWithoutFuzzing runs one corpus entry as a plain unit
// test so the agreement property is exercised on every bare `go test`
// (the CI race tier included), not only when the fuzz tier or -fuzz
// selects the fuzz target.
func TestFuzzSeedsPassWithoutFuzzing(t *testing.T) {
	fuzzAgreement(t, 1, 4, 24)
}
