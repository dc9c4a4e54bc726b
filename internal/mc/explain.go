package mc

import (
	"time"

	"semsim/internal/hin"
	"semsim/internal/obs/quality"
	"semsim/internal/semantic"
)

// Explain evaluates sim(u,v) while recording the evidence behind the
// estimate: per-step meeting counts, the empirical variance and CLT
// confidence interval over the n_w per-walk contributions,
// theta-pruning accounting and cache/kernel provenance.
//
// The contract is observe-don't-perturb: Explain runs query, the one
// pair loop behind QueryCost, with the evidence switched on, so
// Explanation.Score is the score QueryCost(u, v, nil) returns on the
// same index, and the shared pruning counters (sem-skips, walk caps,
// walks coupled) advance exactly as a plain query would advance them.
func (e *Estimator) Explain(u, v hin.NodeID) *quality.Explanation {
	t0 := time.Now()
	ex := &quality.Explanation{
		U:            int(u),
		V:            int(v),
		Backend:      "mc",
		Theta:        e.theta,
		CIConfidence: quality.Confidence,
		SOCacheMode:  e.cacheMode(),
		KernelMode:   e.kernelMode(),
	}
	ex.Score = e.query(u, v, &ex.Cost, ex)
	ex.ElapsedSeconds = time.Since(t0).Seconds()
	e.m.explains.Inc()
	e.m.explainLat.ObserveDuration(time.Since(t0))
	return ex
}

// explainSettled records the evidence of a pair the gate settled
// without sampling (nil ex records nothing). sim(u,u) = 1 by definition
// carries no sampling uncertainty, so its interval is degenerate. A
// theta-pruned pair (Algorithm 1 lines 2-3) is the constant 0; its only
// error is the pruning envelope, bounded by sem itself via Prop 2.5
// (sim <= sem <= theta).
func explainSettled(ex *quality.Explanation, semUV, settled float64) {
	if ex == nil {
		return
	}
	ex.Sem = semUV
	if settled == 1 {
		ex.Mean, ex.CILow, ex.CIHigh = 1, 1, 1
		return
	}
	ex.SemSkipped = true
	ex.PruneEnvelope = semUV
}

// explainSampled records the evidence of a sampled pair from the sums
// query accumulated over its n_w coupled walks: the contributions' sum,
// sum of squares and sum of cubes.
func (e *Estimator) explainSampled(ex *quality.Explanation, semUV, total, sumSq, sumCube float64, coupled, capped int64) {
	nw := e.ix.NumWalks()
	ex.Sem = semUV
	ex.NumWalks = nw
	ex.WalksCoupled = int(coupled)
	ex.WalkCaps = int(capped)
	mean, variance, stderr, lo, hi := quality.CLT(semUV, nw, total, sumSq)
	ex.Mean, ex.Variance, ex.StdErr = mean, variance, stderr
	// Johnson's skewness correction recenters the interval: importance
	// weights are right-skewed, so the symmetric CLT interval misses
	// high more often than 1-Confidence admits (see quality.SkewShift).
	shift := quality.SkewShift(semUV, nw, total, sumSq, sumCube)
	ex.SkewShift = shift
	ex.CILow = quality.Clamp01(lo + shift)
	ex.CIHigh = quality.Clamp01(hi + shift)
	if e.theta > 0 {
		// Prop 4.6: theta-capping introduces a one-sided additive error
		// of at most theta on the estimate.
		ex.PruneEnvelope = e.theta
	}
}

// cacheMode reports where SO normalizations are served from: "dense"
// (precomputed triangular table), "map" (striped lazy cache) or "none".
func (e *Estimator) cacheMode() string {
	switch {
	case e.cache == nil:
		return "none"
	case e.cache.Dense():
		return "dense"
	default:
		return "map"
	}
}

// kernelMode reports the semantic kernel's evaluation mode ("dense" or
// "memo"), or "" when the measure is not kernel-wrapped.
func (e *Estimator) kernelMode() string {
	if k, ok := e.sem.(*semantic.Kernel); ok {
		return k.Mode()
	}
	return ""
}
