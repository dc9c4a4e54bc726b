package engine

import (
	"time"

	"semsim/internal/hin"
	"semsim/internal/obs/quality"
	"semsim/internal/semantic"
)

// Explain on the mc backend delegates to the estimator, which runs its
// one query loop with the evidence switched on: Explanation.Score is
// the score Query returns.
func (b *mcBackend) Explain(u, v hin.NodeID) (*quality.Explanation, error) {
	if err := CheckPair(b.g, u, v); err != nil {
		return nil, err
	}
	return b.est.Explain(u, v), nil
}

// Explain on a matrix backend (exact, and linear's read side) reports
// the solved score with a degenerate (zero-width) interval — exact
// values carry no sampling uncertainty.
func (b *matrixBackend) Explain(u, v hin.NodeID) (*quality.Explanation, error) {
	if err := CheckPair(b.g, u, v); err != nil {
		return nil, err
	}
	t0 := time.Now()
	ex := exactExplanation(u, v, b.scores.At(u, v), b.name)
	ex.Sem = semOf(b.sem, u, v)
	ex.ElapsedSeconds = time.Since(t0).Seconds()
	return ex, nil
}

// Explain on the linear backend adds the solve's convergence evidence
// to the matrix read: how many Gauss-Seidel sweeps ran and the residual
// they ended on.
func (b *linearBackend) Explain(u, v hin.NodeID) (*quality.Explanation, error) {
	ex, err := b.matrixBackend.Explain(u, v)
	if err != nil {
		return nil, err
	}
	ex.SolveSweeps = b.sweeps
	ex.SolveResidual = b.residual
	return ex, nil
}

// Explain on the reduced backend reports the solved G^2_theta score.
// Retained pairs are exact (Theorem 3.5); dropped pairs score 0 with a
// one-sided error bounded by the retention threshold, surfaced as the
// pruning envelope.
func (b *reducedBackend) Explain(u, v hin.NodeID) (*quality.Explanation, error) {
	if err := CheckPair(b.g, u, v); err != nil {
		return nil, err
	}
	t0 := time.Now()
	s := b.red.Score(u, v)
	ex := exactExplanation(u, v, s, b.Name())
	ex.Sem = semOf(b.sem, u, v)
	ex.Theta = b.theta
	if s == 0 && u != v {
		// A zero from the reduced backend cannot distinguish "truly
		// dissimilar" from "dropped by the reduction"; either way the
		// true score is at most min(sem, theta).
		env := b.theta
		if ex.Sem < env {
			env = ex.Sem
		}
		ex.SemSkipped = ex.Sem <= b.theta
		ex.PruneEnvelope = env
	}
	ex.ElapsedSeconds = time.Since(t0).Seconds()
	return ex, nil
}

// semOf evaluates the semantic measure for an Explanation (sem(u,u)=1
// by definition without a measure probe).
func semOf(sem semantic.Measure, u, v hin.NodeID) float64 {
	if u == v {
		return 1
	}
	return sem.Sim(u, v)
}

// exactExplanation is the shared degenerate-interval record of the
// exact-family backends.
func exactExplanation(u, v hin.NodeID, score float64, backend string) *quality.Explanation {
	return &quality.Explanation{
		U:            int(u),
		V:            int(v),
		Backend:      backend,
		Exact:        true,
		Score:        score,
		Mean:         score,
		CILow:        score,
		CIHigh:       score,
		CIConfidence: quality.Confidence,
		SOCacheMode:  "none",
	}
}
