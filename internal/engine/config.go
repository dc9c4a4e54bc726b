package engine

import (
	"semsim/internal/hin"
	"semsim/internal/mc"
	"semsim/internal/obs"
	"semsim/internal/semantic"
	"semsim/internal/walk"
)

// Config carries everything a backend factory may need. Each backend
// reads the subset it understands; the shared fields (Graph, Sem, C,
// Theta) are filled by New with the paper's defaults when zero.
type Config struct {
	// Graph is the HIN every backend scores over. Required.
	Graph *hin.Graph
	// Sem is the admissible semantic measure. Required.
	Sem semantic.Measure
	// C is the decay factor (default 0.6).
	C float64
	// Theta is the pruning threshold shared by the mc backend (walk
	// capping) and the reduced backend (pair retention). 0 disables
	// pruning for mc; the reduced backend then falls back to
	// DefaultReduceTheta (a reduction needs a threshold to exist).
	Theta float64

	// Estimator, when non-nil, is the prepared Monte-Carlo estimator
	// the "mc" backend wraps — the facade passes the one it already
	// assembled (with SLING cache and metrics wired) so the engine and
	// the compatibility shims share identical state. When nil, the mc
	// factory builds one from Walks.
	Estimator *mc.Estimator
	// Walks is the precomputed reversed-walk index ("mc" substrate;
	// required by the mc backend when Estimator is nil).
	Walks *walk.Index
	// Meet is the optional inverted meeting index enabling the mc
	// backend's single-source enumeration and collision-driven top-k.
	Meet *walk.MeetIndex
	// Cache is the optional SLING SO-cache handed to a factory-built
	// estimator (ignored when Estimator is set — it already has one).
	// The linear backend reads its normalization N(u,v) from the
	// cache's published dense table when that covers Graph and Sem.
	Cache *mc.SOCache
	// Workers sizes factory-built estimators' scoring pools.
	Workers int
	// Metrics receives backend instrumentation and planner counters.
	// Nil disables at zero cost (see internal/obs).
	Metrics *obs.Registry
	// Planner, when non-nil, picks the top-k strategy per query for
	// backends that support strategy selection; nil keeps the static
	// caller-chosen default (meet index if present, else brute scan).
	Planner *Planner

	// MaxIterations bounds the fixpoint solves of the reduced and
	// exact backends (default 100).
	MaxIterations int
	// Tol is the fixpoint convergence tolerance (default 1e-10).
	Tol float64
	// MaxExactNodes caps the graph size the exact backend accepts —
	// its O(n^2) matrix and O(k n^2 d^2) solve are only for small
	// graphs (default 4096 nodes).
	MaxExactNodes int

	// LinearMaxSweeps bounds the Gauss-Seidel sweeps of the linear
	// backend's linearized solve (default DefaultLinearSweeps).
	LinearMaxSweeps int
	// LinearResidual is the linear backend's residual stop criterion:
	// sweeping ends once no score or diagonal-correction entry moved
	// by more than this (default DefaultLinearResidual).
	LinearResidual float64
	// MaxLinearNodes caps the graph size the linear backend accepts —
	// like exact it holds an O(n^2) matrix and sweeps in O(n^2 d^2)
	// (default DefaultMaxLinearNodes).
	MaxLinearNodes int
}

// fillSolve defaults the fixpoint-solve knobs shared by the reduced and
// exact backends.
func (c *Config) fillSolve() (iters int, tol float64) {
	iters = c.MaxIterations
	if iters == 0 {
		iters = 100
	}
	tol = c.Tol
	if tol == 0 {
		tol = 1e-10
	}
	return iters, tol
}

// fillLinear defaults the linear backend's sweep/residual budget.
func (c *Config) fillLinear() (sweeps int, residual float64) {
	sweeps = c.LinearMaxSweeps
	if sweeps == 0 {
		sweeps = DefaultLinearSweeps
	}
	residual = c.LinearResidual
	if residual == 0 {
		residual = DefaultLinearResidual
	}
	return sweeps, residual
}
