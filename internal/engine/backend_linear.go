package engine

import (
	"context"
	"fmt"
	"math"

	"semsim/internal/hin"
	"semsim/internal/pairgraph"
	"semsim/internal/simmat"
)

func init() {
	Register("linear", newLinearBackend)
}

// DefaultMaxLinearNodes caps the graph size the linear backend accepts
// by default. Like the exact backend it stores an O(n^2) score matrix
// (plus its triangular coefficient matrix), and each sweep is
// O(n*|E|); the cap marks where the solve stops fitting an interactive
// build budget.
const DefaultMaxLinearNodes = 4096

// DefaultLinearSweeps bounds the solve's sweeps when
// Config.LinearMaxSweeps is zero. With c = 0.6 the residual contracts
// by roughly c per sweep, so the default residual target is reached in
// well under half this budget on admissible inputs.
const DefaultLinearSweeps = 100

// DefaultLinearResidual is the residual stop criterion when
// Config.LinearResidual is zero: the sweep loop ends once no score (and
// no diagonal-correction entry) moved by more than this amount.
const DefaultLinearResidual = 1e-9

// linearBackend answers queries from a linearized SemSim solve in the
// style of Maehara et al. ("Efficient SimRank Computation via
// Linearization", VLDB 2014): SemSim's recursion is read as the linear
// system
//
//	S = K .* (W^T S W) + diag(D)
//
// where K is the pairwise coefficient kappa(u,v) = sem(u,v)*c/N(u,v)
// (the linearization of Equation 1's semantic folding — the same
// factor the reduced backend folds into its pair-graph edges) and D is
// the diagonal correction matrix that makes the pinned unit diagonal
// consistent with the unconstrained system. Construction estimates D
// and solves for S simultaneously with in-place row-factored sweeps
// (linearSweep) under a residual-based stop criterion; queries are then
// answered by the embedded matrixBackend, the exact backend's reads. It
// reports itself exact like the exact backend: the solve runs to a 1e-9
// residual by default, so returned scores match the fixpoint far inside
// any tolerance a caller can observe (Sweeps/Residual expose the actual
// convergence achieved).
//
// N(u,v) is the SARW normalization SO(u,v) the SLING cache stores, so
// when the epoch's SO cache has published its dense table (Config.Cache
// over the same graph and measure) the solve reads N from it instead of
// computing it again with a pairgraph.Normalizer.
//
// Where the exact backend runs two-matrix Jacobi sweeps with an
// averaged-delta convergence test (core.Iterative), this solver updates
// in place — each row immediately sees the rows before it at their
// freshest values — and stops on the max residual. Both iterations are
// monotone from the identity start and bounded above by sem (Prop 2.5),
// so they converge to the same minimal fixpoint; the conformance
// harness asserts the two backends agree within 1e-6 on every graph it
// generates.
type linearBackend struct {
	matrixBackend
	diag     []float64 // D, the estimated diagonal correction
	sweeps   int       // sweeps actually run
	residual float64   // max |delta| of the final sweep
}

func newLinearBackend(ctx context.Context, cfg Config) (Backend, error) {
	limit := cfg.MaxLinearNodes
	if limit == 0 {
		limit = DefaultMaxLinearNodes
	}
	n := cfg.Graph.NumNodes()
	if n > limit {
		return nil, fmt.Errorf("engine: linear backend caps at %d nodes, graph has %d (use the mc or reduced backend)", limit, n)
	}
	maxSweeps, tol := cfg.fillLinear()
	g, sem := cfg.Graph, cfg.Sem

	// N(u,v) is iteration-independent: read it from the epoch's dense
	// SO table when one is attached, else compute it row by row here.
	// The table was filled by the same normalizer's rows, so the solve
	// is bit-identical.
	table, shared := cfg.Cache.Table(g, sem)
	var row *pairgraph.Row
	var scratch []float64
	if !shared {
		row = pairgraph.NewNormalizer(g, sem).NewRow()
		scratch = make([]float64, n)
	}

	// The coefficient matrix of the linearized system, upper triangle
	// row by row: row u holds kappa(u,v) for v >= u at offset v-u.
	// kappa = 0 marks pairs outside the recursion (an empty
	// in-neighborhood on either side, or zero normalization).
	kappa := make([]float64, n*(n+1)/2)
	D := make([]float64, n)
	off := 0
	for u := 0; u < n; u++ {
		krow := kappa[off : off+n-u]
		off += n - u
		if len(g.InNeighbors(hin.NodeID(u))) > 0 {
			var nrow []float64 // nrow[v-u] = N(u,v)
			if shared {
				nrow = table.Row(hin.NodeID(u))
			} else {
				nrow = scratch[:n-u]
				row.Reset(hin.NodeID(u))
				row.Fill(nrow)
			}
			for v := u; v < n; v++ {
				if len(g.InNeighbors(hin.NodeID(v))) == 0 {
					continue
				}
				nv := nrow[v-u]
				if nv == 0 {
					continue
				}
				semUV := 1.0
				if u != v {
					semUV = sem.Sim(hin.NodeID(u), hin.NodeID(v))
				}
				krow[v-u] = semUV * cfg.C / nv
			}
		}
		// Nodes whose diagonal receives no recursive mass (no
		// in-neighbors, or zero normalization) are pure source terms:
		// S(u,u) = D(u) = 1.
		if krow[0] == 0 {
			D[u] = 1
		}
	}

	S := simmat.New(n) // identity start, the R_0 of the iterative forms
	x := make([]float64, n)
	var sweeps int
	residual := math.Inf(1)
	for sweeps < maxSweeps && residual > tol {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sweeps++
		residual = linearSweep(g, kappa, S, D, x)
	}
	return &linearBackend{
		matrixBackend: matrixBackend{name: "linear", g: g, sem: sem, scores: S, planner: cfg.Planner},
		diag:          D,
		sweeps:        sweeps,
		residual:      residual,
	}, nil
}

// linearSweep runs one in-place pass over the linearized system in
// row-factored form and returns its max absolute change (the residual
// the stop criterion watches). Row u first accumulates
//
//	X = sum_{a in I(u)} w(a,u) * S[a]
//
// over contiguous rows of the current S — rows before u already carry
// this sweep's values — and then sets
//
//	S(u,v) = kappa(u,v) * sum_{b in I(v)} w(b,v) * X[b]   for v > u,
//
// the pair sum sum_a sum_b w(a,u)*w(b,v)*S(a,b) factored through X.
// That is about 1.5*n*|E| multiply-adds per sweep (n*|E| for the X
// rows, half that again for the pairs) instead of a d_u*d_v scattered
// gather per pair. The diagonal of S stays pinned at 1; the diagonal
// correction D(u) = 1 - kappa(u,u) * sum_{a in I(u)} w(a,u) * X[a]
// absorbs the difference, and its change counts toward the residual so
// the stop criterion covers the whole system. x is an n-length scratch
// row, reused across rows and sweeps.
func linearSweep(g *hin.Graph, kappa []float64, S *simmat.Matrix, D, x []float64) float64 {
	n := S.N()
	var maxDelta float64
	off := 0
	for u := 0; u < n; u++ {
		krow := kappa[off : off+n-u]
		off += n - u
		iu := g.InNeighbors(hin.NodeID(u))
		if len(iu) == 0 {
			continue
		}
		wu := g.InWeights(hin.NodeID(u))
		clear(x)
		for i, a := range iu {
			w := wu[i]
			row := S.Row(a)
			x := x[:len(row)] // equal lengths: no bounds check per b
			for b, s := range row {
				x[b] += w * s
			}
		}
		srow := S.Row(hin.NodeID(u))
		for v := u + 1; v < n; v++ {
			k := krow[v-u]
			if k == 0 {
				continue
			}
			wv := g.InWeights(hin.NodeID(v))
			var sum float64
			for j, b := range g.InNeighbors(hin.NodeID(v)) {
				sum += wv[j] * x[b]
			}
			next := k * sum
			if d := math.Abs(next - srow[v]); d > maxDelta {
				maxDelta = d
			}
			S.Set(hin.NodeID(u), hin.NodeID(v), next)
		}
		if ku := krow[0]; ku != 0 {
			var sum float64
			for i, a := range iu {
				sum += wu[i] * x[a]
			}
			next := 1 - ku*sum
			if d := math.Abs(next - D[u]); d > maxDelta {
				maxDelta = d
			}
			D[u] = next
		}
	}
	return maxDelta
}

// Sweeps reports how many in-place sweeps the solve ran.
func (b *linearBackend) Sweeps() int { return b.sweeps }

// Residual reports the max absolute change of the final sweep — the
// convergence actually achieved against Config.LinearResidual.
func (b *linearBackend) Residual() float64 { return b.residual }

// Diagonal returns a copy of the estimated diagonal correction matrix
// D (one entry per node) — the quantity the linearization solves for
// alongside the scores, exposed for tests and diagnostics.
func (b *linearBackend) Diagonal() []float64 {
	out := make([]float64, len(b.diag))
	copy(out, b.diag)
	return out
}

// MemoryBytes adds the diagonal correction to the score matrix.
func (b *linearBackend) MemoryBytes() int64 {
	return b.matrixBackend.MemoryBytes() + int64(len(b.diag))*8
}
