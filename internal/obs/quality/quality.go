// Package quality is the estimate-quality observability layer of the
// semsim engine — the companion to package obs, which measures *speed*
// while this package measures *trustworthiness*. The paper's central
// trade (Sections 3-4, Theorem 3.5 / Prop 4.6) exchanges bounded
// accuracy for query time; the types here make that bound visible on
// live traffic instead of leaving it a compile-time theorem:
//
//   - Explanation (this file) is the per-query evidence record behind
//     Index.ExplainQuery and the /explain endpoint: walk samples used,
//     meeting offsets, empirical variance and a CLT confidence interval
//     on the Monte-Carlo estimate, theta-pruning accounting and cache /
//     kernel provenance. Explaining a query never perturbs it — the
//     Score field is bit-identical to a plain Query on the same index.
//
//   - Shadow (shadow.go) re-scores a sampled fraction of live queries
//     on an exact reference backend off the hot path and exports the
//     observed absolute error, turning the theorem's epsilon envelope
//     into a scrapeable SLO.
//
//   - Health (health.go) polls Go runtime statistics (heap, goroutines,
//     GC pauses) into obs gauges.
//
//   - QueryLog (querylog.go) writes serve's one event per request — the
//     flight.Record its flight ring also keeps — as a JSON line.
//
// Everything follows package obs's nil-is-off contract: a nil *Shadow,
// *Health or *QueryLog ignores all calls, so enabling the layer is a
// wiring decision and disabling it costs one predictable branch.
package quality

import (
	"math"

	"semsim/internal/obs"
)

// Confidence is the two-sided confidence level of the CLT interval
// reported in Explanation (CILow, CIHigh).
const Confidence = 0.95

// z95 is the standard-normal quantile for the two-sided 95% interval.
const z95 = 1.959963984540054

// Explanation is the evidence record for one single-pair query: how the
// estimate was produced and how much it should be trusted. It is
// JSON-marshalable as-is (the /explain payload).
//
// Score is bit-identical to Index.Query on the same index — explanation
// observes the estimator, it never changes what the estimator computes.
type Explanation struct {
	// U, V are the queried node ids; UName/VName are display names
	// filled by callers that know them (the HTTP server).
	U     int    `json:"u"`
	V     int    `json:"v"`
	UName string `json:"u_name,omitempty"`
	VName string `json:"v_name,omitempty"`

	// Backend is the engine backend that produced the estimate; Exact
	// reports that it returns converged fixpoint values (the CLT fields
	// are then degenerate: zero variance, CI collapsed onto Score).
	Backend string `json:"backend"`
	Exact   bool   `json:"exact"`

	// Score is the returned similarity, bit-identical to Query.
	// Sem is sem(u,v), the Prop 2.5 upper bound on the true score.
	Score float64 `json:"score"`
	Sem   float64 `json:"sem"`

	// Monte-Carlo evidence (zero-valued on exact backends).
	//
	// NumWalks is n_w, the sample count behind the estimate.
	// WalksCoupled counts walks that met within t steps; MeetsByStep[s]
	// counts the walks whose first meeting was at offset s (len t+1).
	NumWalks     int     `json:"num_walks,omitempty"`
	WalksCoupled int     `json:"walks_coupled,omitempty"`
	MeetsByStep  []int64 `json:"meets_by_step,omitempty"`

	// Theta-pruning accounting (Section 4.4): SemSkipped reports the
	// whole query was answered 0 because sem <= theta (Algorithm 1
	// lines 2-3); WalkCaps counts per-walk contributions capped once
	// their partial product dropped to <= theta (Definition 4.5).
	Theta      float64 `json:"theta"`
	SemSkipped bool    `json:"theta_sem_skipped,omitempty"`
	WalkCaps   int     `json:"theta_walk_caps,omitempty"`

	// CLT statistics over the n_w per-walk contributions: Mean is the
	// unclamped estimate (Score before the [0,1] clamp), Variance the
	// empirical sample variance, StdErr the standard error of the mean,
	// and [CILow, CIHigh] the two-sided Confidence-level interval
	// (clamped into [0,1], where the true score must live). For the
	// unpruned estimator the interval covers the exact fixpoint score
	// with the stated confidence (Prop 4.4: the estimator is unbiased).
	Mean         float64 `json:"mean"`
	Variance     float64 `json:"variance"`
	StdErr       float64 `json:"std_err"`
	CILow        float64 `json:"ci_low"`
	CIHigh       float64 `json:"ci_high"`
	CIConfidence float64 `json:"ci_confidence"`

	// SkewShift is Johnson's second-order skewness correction, already
	// applied to both CI bounds (see SkewShift). Positive when the
	// contribution distribution is right-skewed — the common case for
	// importance-sampled walk scores (many zeros, rare large weights),
	// where the plain CLT interval centers low exactly on the indexes
	// that also under-estimate the variance.
	SkewShift float64 `json:"skew_shift,omitempty"`

	// Iterative-solve evidence (the linear backend): SolveSweeps is
	// how many Gauss-Seidel sweeps the linearized solve ran and
	// SolveResidual the max absolute score change of the final sweep —
	// the convergence actually achieved against the configured
	// residual budget. Zero on every other backend.
	SolveSweeps   int     `json:"solve_sweeps,omitempty"`
	SolveResidual float64 `json:"solve_residual,omitempty"`

	// PruneEnvelope is the one-sided additive error bound introduced by
	// theta-pruning (Prop 4.6): the true score lies within
	// [CILow, CIHigh + PruneEnvelope] at the stated confidence. Zero
	// when pruning is disabled.
	PruneEnvelope float64 `json:"prune_envelope,omitempty"`

	// Provenance: where the per-step lookups were served from.
	// SOCacheMode is "dense" (flat triangular table), "map" (striped
	// lazy cache) or "none"; KernelMode is "dense", "memo" or "" when
	// no semantic kernel wraps the measure.
	SOCacheMode string `json:"so_cache"`
	KernelMode  string `json:"kernel,omitempty"`

	// Cost is the work the evaluation performed — walk steps, SO-cache
	// traffic, kernel probes, lazy block decodes (see obs.Cost). Filled
	// by cost-accounting backends; zero-valued on the rest.
	Cost obs.Cost `json:"cost"`

	// ElapsedSeconds is the wall time of this explain evaluation.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// CIWidth returns CIHigh - CILow, the headline uncertainty number of
// the wide-event query log.
func (ex *Explanation) CIWidth() float64 {
	if ex == nil {
		return 0
	}
	return ex.CIHigh - ex.CILow
}

// Contains reports whether s lies inside the confidence interval
// widened by the pruning envelope — the operational "is the reference
// score consistent with this estimate" check.
func (ex *Explanation) Contains(s float64) bool {
	return s >= ex.CILow && s <= ex.CIHigh+ex.PruneEnvelope
}

// CLT computes the sample statistics of an importance-sampling estimate
// built from n per-walk contributions with the given sum and sum of
// squares, each scaled by the constant factor scale (sem(u,v) in
// Algorithm 1). The mean is evaluated as scale*sum/n in exactly the
// floating-point order the estimator uses, so clamping it reproduces
// Query's score bit for bit.
//
// The interval is the two-sided Confidence-level normal approximation,
// clamped into [0,1] (similarity scores cannot leave it). With n <= 1
// samples the variance is defined as 0 and the interval collapses onto
// the mean.
func CLT(scale float64, n int, sum, sumSq float64) (mean, variance, stderr, lo, hi float64) {
	if n <= 0 {
		return 0, 0, 0, 0, 0
	}
	mean = scale * sum / float64(n)
	if n > 1 {
		// Sample variance of the raw contributions; the constant scale
		// factors out as scale^2. Numerical cancellation can push the
		// difference fractionally negative — clamp, don't sqrt a NaN.
		raw := (sumSq - sum*sum/float64(n)) / float64(n-1)
		if raw < 0 {
			raw = 0
		}
		variance = scale * scale * raw
		stderr = math.Sqrt(variance / float64(n))
	}
	lo = clamp01(mean - z95*stderr)
	hi = clamp01(mean + z95*stderr)
	return mean, variance, stderr, lo, hi
}

// SkewShift computes Hall's second-order skewness correction for the
// CLT interval over skewed samples: both bounds shift by
// (1+2z^2) * mu3 / (6*sigma^2*n), where mu3 is the third central moment
// and sigma^2 the sample variance of the raw contributions (the
// constant scale factor enters linearly: mu3 scales cubically, sigma^2
// quadratically). The (1+2z^2) factor comes from inverting the
// Edgeworth expansion of the *studentized* mean — the relevant statistic
// here, since the interval uses the empirical standard error.
//
// Importance-sampled walk contributions are heavily right-skewed — most
// walks contribute 0, a few carry large weights — and a walk index that
// undersamples the rare heavy contributions estimates a low mean AND a
// low variance together, so the symmetric CLT interval misses high more
// often than its nominal level admits. Hall's shift recenters the
// interval to restore second-order coverage; callers add it to both
// CLT bounds (re-clamping into [0,1]).
func SkewShift(scale float64, n int, sum, sumSq, sumCube float64) float64 {
	if n <= 1 {
		return 0
	}
	mean := sum / float64(n)
	raw := (sumSq - sum*mean) / float64(n-1)
	if raw <= 0 {
		return 0
	}
	mu3 := sumCube/float64(n) - 3*mean*sumSq/float64(n) + 2*mean*mean*mean
	return scale * (1 + 2*z95*z95) * mu3 / (6 * raw * float64(n))
}

// Clamp01 clamps v into [0,1], the range similarity scores live in.
func Clamp01(v float64) float64 { return clamp01(v) }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ErrorBuckets is the histogram bound set for absolute-error
// observations (shadow verification, accuracy experiments): a 1-2.5-5
// decade ladder from 1e-6 to 1, matching the scale of Monte-Carlo
// deviations and theta envelopes.
var ErrorBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1,
}
