// Package core implements the paper's primary contribution: the SemSim
// similarity measure (Section 2), a refinement of SimRank that weights
// neighbor similarity with edge weights and a pluggable semantic measure.
//
// The recursive definition (Equation 1) is, for u != v:
//
//	sim(u,v) = sem(u,v)*c/N(u,v) *
//	           sum_{i,j} sim(I_i(u),I_j(v)) * W(I_i(u),u) * W(I_j(v),v)
//
// with normalization
//
//	N(u,v) = sum_{i,j} W(I_i(u),u) * W(I_j(v),v) * sem(I_i(u),I_j(v))
//
// and sim(u,v) = 0 when I(u) or I(v) is empty, sim(u,u) = 1. This package
// provides the iterative fixpoint solver (Equations 2–3), the decay-factor
// upper bound of Theorem 2.3(5), and helpers that verify the paper's
// structural propositions (2.4 and 2.5) used elsewhere for pruning.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"semsim/internal/hin"
	"semsim/internal/semantic"
	"semsim/internal/simmat"
)

// DefaultC is the decay factor used throughout the paper's experiments.
const DefaultC = 0.6

// IterOptions configure the iterative fixpoint computation.
type IterOptions struct {
	// C is the decay factor. Theorem 2.3(5) guarantees uniqueness for
	// c < min(min_{u,v} N(u,v), 1); DecayUpperBound computes that bound.
	// Default: DefaultC.
	C float64
	// MaxIterations bounds the number of sweeps. Default: 10.
	MaxIterations int
	// Tol stops early once both average deltas drop below it; 0 disables
	// early stopping.
	Tol float64
	// Parallel shards rows across CPUs.
	Parallel bool
	// SameLabelOnly restricts the double sum to in-neighbor pairs whose
	// edges carry the same label — the alternative formulation Section
	// 2.2 discusses and rejects ("may overlook possibly important
	// relations among the objects"). It exists for the ablation
	// experiment confirming that finding.
	SameLabelOnly bool
}

func (o *IterOptions) fill() error {
	if o.C == 0 {
		o.C = DefaultC
	}
	if o.C < 0 || o.C >= 1 {
		return fmt.Errorf("core: decay factor c = %v outside [0,1)", o.C)
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 10
	}
	if o.MaxIterations < 1 {
		return fmt.Errorf("core: MaxIterations = %d < 1", o.MaxIterations)
	}
	return nil
}

// Result carries the converged SemSim matrix and per-iteration deltas
// (consumed by the Figure 3 convergence experiment).
type Result struct {
	Scores *simmat.Matrix
	Deltas []simmat.IterDelta
}

// Iterative computes all-pairs SemSim by iterating Equation 3 to its
// fixpoint (or the iteration bound). The semantic measure must satisfy the
// three admissibility constraints of Section 2.2 (semantic.Validate).
func Iterative(g *hin.Graph, sem semantic.Measure, opts IterOptions) (*Result, error) {
	return IterativeContext(context.Background(), g, sem, opts)
}

// IterativeContext is Iterative stopping between iterations once ctx is
// done; it then returns ctx.Err() and no result.
func IterativeContext(ctx context.Context, g *hin.Graph, sem semantic.Measure, opts IterOptions) (*Result, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	n := g.NumNodes()

	// The normalization N(u,v) does not depend on the iteration; compute
	// it once. norm[u*n+v] is 0 for pairs with an empty in-neighborhood
	// (or, under SameLabelOnly, without any same-label neighbor pair).
	norm := make([]float64, n*n)
	forEachRow(n, opts.Parallel, func(u int) {
		iu := g.InNeighbors(hin.NodeID(u))
		if len(iu) == 0 {
			return
		}
		wu := g.InWeights(hin.NodeID(u))
		lu := g.InLabels(hin.NodeID(u))
		for v := u; v < n; v++ {
			iv := g.InNeighbors(hin.NodeID(v))
			if len(iv) == 0 {
				continue
			}
			wv := g.InWeights(hin.NodeID(v))
			lv := g.InLabels(hin.NodeID(v))
			var s float64
			for i, a := range iu {
				for j, b := range iv {
					if opts.SameLabelOnly && lu[i] != lv[j] {
						continue
					}
					s += wu[i] * wv[j] * sem.Sim(a, b)
				}
			}
			norm[u*n+v] = s
			norm[v*n+u] = s
		}
	})

	prev := simmat.New(n)
	res := &Result{}
	for k := 0; k < opts.MaxIterations; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next := simmat.New(n)
		forEachRow(n, opts.Parallel, func(u int) {
			iu := g.InNeighbors(hin.NodeID(u))
			if len(iu) == 0 {
				return
			}
			wu := g.InWeights(hin.NodeID(u))
			lu := g.InLabels(hin.NodeID(u))
			for v := u + 1; v < n; v++ {
				nv := norm[u*n+v]
				if nv == 0 {
					continue
				}
				iv := g.InNeighbors(hin.NodeID(v))
				wv := g.InWeights(hin.NodeID(v))
				lv := g.InLabels(hin.NodeID(v))
				var sum float64
				for i, a := range iu {
					row := prev.Row(a)
					for j, b := range iv {
						if opts.SameLabelOnly && lu[i] != lv[j] {
							continue
						}
						sum += wu[i] * wv[j] * row[b]
					}
				}
				score := sem.Sim(hin.NodeID(u), hin.NodeID(v)) * opts.C * sum / nv
				next.Set(hin.NodeID(u), hin.NodeID(v), score)
			}
		})
		d := simmat.Delta(k+1, prev, next)
		res.Deltas = append(res.Deltas, d)
		prev = next
		if opts.Tol > 0 && d.Converged(opts.Tol) {
			break
		}
	}
	res.Scores = prev
	return res, nil
}

// forEachRow invokes fn(u) for u in [0,n), optionally sharded over CPUs.
// Writes by different rows never alias: row u only touches norm/next cells
// (u,v) with v >= u together with their mirror (v,u), and mirrors of
// distinct rows are distinct — except simmat.Set which writes (v,u) rows;
// those are distinct cells per (u,v) so there is no write contention.
func forEachRow(n int, parallel bool, fn func(u int)) {
	if !parallel || n < 64 {
		for u := 0; u < n; u++ {
			fn(u)
		}
		return
	}
	workers := runtime.GOMAXPROCS(0)
	var next int64
	var mu sync.Mutex
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		u := int(next)
		next++
		return u
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := take()
				if u >= n {
					return
				}
				fn(u)
			}
		}()
	}
	wg.Wait()
}

// DecayUpperBound computes min(min_{u,v} N(u,v), 1) over node pairs with
// non-empty in-neighborhoods: Theorem 2.3(5) guarantees the SemSim solution
// is unique for every decay factor strictly below this bound. The scan is
// O(n^2 * d^2); maxPairs > 0 caps the number of pairs examined (a sampled
// lower-cost variant for large graphs, scanning pairs in row order).
func DecayUpperBound(g *hin.Graph, sem semantic.Measure, maxPairs int) float64 {
	n := g.NumNodes()
	bound := 1.0
	examined := 0
	for u := 0; u < n; u++ {
		iu := g.InNeighbors(hin.NodeID(u))
		if len(iu) == 0 {
			continue
		}
		wu := g.InWeights(hin.NodeID(u))
		for v := u; v < n; v++ {
			iv := g.InNeighbors(hin.NodeID(v))
			if len(iv) == 0 {
				continue
			}
			wv := g.InWeights(hin.NodeID(v))
			var s float64
			for i, a := range iu {
				for j, b := range iv {
					s += wu[i] * wv[j] * sem.Sim(a, b)
				}
			}
			if s < bound {
				bound = s
			}
			examined++
			if maxPairs > 0 && examined >= maxPairs {
				return bound
			}
		}
	}
	return bound
}

// SemBound checks Proposition 2.5 (sim(u,v) <= sem(u,v)) over a computed
// matrix, returning the first violating pair, if any. It backs both tests
// and the G^2_theta pruning argument.
func SemBound(scores *simmat.Matrix, sem semantic.Measure) (u, v hin.NodeID, ok bool) {
	n := scores.N()
	const slack = 1e-9
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if scores.At(hin.NodeID(i), hin.NodeID(j)) > sem.Sim(hin.NodeID(i), hin.NodeID(j))+slack {
				return hin.NodeID(i), hin.NodeID(j), false
			}
		}
	}
	return 0, 0, true
}
