// Package simrank implements the SimRank family of structural similarity
// measures used as baselines in the paper: the original iterative SimRank
// of Jeh and Widom (KDD'02), the Fogaras–Rácz Monte-Carlo approximation
// (WWW'05) that Section 4.1 of the paper builds on, and the weighted
// SimRank++ variant of Antonellis et al. (PVLDB'08).
package simrank

import (
	"fmt"

	"semsim/internal/hin"
	"semsim/internal/rank"
	"semsim/internal/simmat"
	"semsim/internal/walk"
)

// DefaultC is the decay factor commonly used in the SimRank literature and
// in the paper's experiments (Section 5.1).
const DefaultC = 0.6

// IterOptions configure the iterative computations.
type IterOptions struct {
	// C is the decay factor in (0,1). Default: DefaultC.
	C float64
	// MaxIterations bounds the number of sweeps. Default: 10.
	MaxIterations int
	// Tol stops early once both average deltas drop below it; 0 disables
	// early stopping.
	Tol float64
}

func (o *IterOptions) fill() error {
	if o.C == 0 {
		o.C = DefaultC
	}
	if o.C < 0 || o.C >= 1 {
		return fmt.Errorf("simrank: decay factor c = %v outside [0,1)", o.C)
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 10
	}
	if o.MaxIterations < 1 {
		return fmt.Errorf("simrank: MaxIterations = %d < 1", o.MaxIterations)
	}
	return nil
}

// Result carries the converged score matrix and per-iteration deltas.
type Result struct {
	Scores *simmat.Matrix
	Deltas []simmat.IterDelta
}

// Iterative computes all-pairs SimRank to its fixpoint (or iteration
// bound): R_{k+1}(u,v) = c/(|I(u)||I(v)|) * sum_{i,j} R_k(I_i(u), I_j(v)),
// with R(u,u) = 1 and score 0 when either in-neighborhood is empty.
func Iterative(g *hin.Graph, opts IterOptions) (*Result, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	prev := simmat.New(n)
	res := &Result{}
	for k := 0; k < opts.MaxIterations; k++ {
		next := simmat.New(n)
		for u := 0; u < n; u++ {
			iu := g.InNeighbors(hin.NodeID(u))
			if len(iu) == 0 {
				continue
			}
			for v := u + 1; v < n; v++ {
				iv := g.InNeighbors(hin.NodeID(v))
				if len(iv) == 0 {
					continue
				}
				var sum float64
				for _, a := range iu {
					row := prev.Row(a)
					for _, b := range iv {
						sum += row[b]
					}
				}
				score := opts.C * sum / float64(len(iu)*len(iv))
				next.Set(hin.NodeID(u), hin.NodeID(v), score)
			}
		}
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

// MC answers single-pair SimRank queries from a precomputed walk index
// following Fogaras–Rácz: simrank(u,v) ~ (1/n_w) * sum_l c^{tau_l}.
// MC is immutable after NewMC and safe for concurrent use: Query,
// SingleSource and TopK only read the walk index and the decay table.
type MC struct {
	ix *walk.Index
	c  float64
	// powC caches c^0..c^t.
	powC []float64
}

// NewMC wraps a walk index for SimRank queries.
func NewMC(ix *walk.Index, c float64) (*MC, error) {
	if c < 0 || c >= 1 {
		return nil, fmt.Errorf("simrank: decay factor c = %v outside [0,1)", c)
	}
	m := &MC{ix: ix, c: c, powC: make([]float64, ix.Length()+1)}
	p := 1.0
	for i := range m.powC {
		m.powC[i] = p
		p *= c
	}
	return m, nil
}

// Query estimates simrank(u,v).
func (m *MC) Query(u, v hin.NodeID) float64 {
	if u == v {
		return 1
	}
	var sum float64
	nw := m.ix.NumWalks()
	vu, vv := m.ix.View(u, nil), m.ix.View(v, nil)
	for i := 0; i < nw; i++ {
		if tau, ok := walk.MeetViews(vu, vv, i); ok {
			sum += m.powC[tau]
		}
	}
	return sum / float64(nw)
}

// SingleSource estimates simrank(u, v) for every v whose walks collide
// with u's, via the inverted meeting index (only nodes with a nonzero
// estimate are returned, ascending by node id). Identical to Query per
// candidate, but with cost proportional to the collision count.
func (m *MC) SingleSource(u hin.NodeID, meet *walk.MeetIndex) []rank.Scored {
	nw := float64(m.ix.NumWalks())
	var out []rank.Scored
	var cur hin.NodeID = -1
	var total float64
	flush := func() {
		if cur >= 0 && total > 0 {
			out = append(out, rank.Scored{Node: cur, Score: total / nw})
		}
		cur = -1
		total = 0
	}
	for _, col := range meet.Collisions(u) {
		if col.Other != cur {
			flush()
			cur = col.Other
		}
		total += m.powC[col.Tau]
	}
	flush()
	return out
}

// TopK returns the k nodes most similar to u (excluding u itself) by MC
// score, in descending order. Candidates with score 0 are omitted.
func (m *MC) TopK(u hin.NodeID, k int) []rank.Scored {
	n := m.ix.Graph().NumNodes()
	h := rank.NewTopK(k)
	for v := 0; v < n; v++ {
		if hin.NodeID(v) == u {
			continue
		}
		if s := m.Query(u, hin.NodeID(v)); s > 0 {
			h.Push(rank.Scored{Node: hin.NodeID(v), Score: s})
		}
	}
	return h.Sorted()
}
