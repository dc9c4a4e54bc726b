// Package pairgraph implements the random surfer-pairs model of Section 3:
// the node-pair graph G^2 over reversed edges, the semantic-aware random
// walk (SARW) transition distribution of Definition 3.1, exact SemSim
// scoring via walks to singleton nodes (Theorem 3.3), and the
// semantically-reduced graph G^2_theta of Definition 3.4 whose scores agree
// with the full graph for every retained pair (Theorem 3.5).
//
// A node of G^2 is an ordered pair of nodes of G; by the symmetry
// P[(u,u') -> (v,v')] = P[(u',u) -> (v',v)] this package stores canonical
// pairs (U <= V) and reports ordered-pair counts where sizes are compared
// against the paper's Table 3.
package pairgraph

import (
	"fmt"
	"math/rand"

	"semsim/internal/hin"
	"semsim/internal/semantic"
	"semsim/internal/simmat"
)

// Pair is a canonical (U <= V) node pair of G^2.
type Pair struct {
	U, V hin.NodeID
}

// MakePair canonicalizes (u,v).
func MakePair(u, v hin.NodeID) Pair {
	if u > v {
		u, v = v, u
	}
	return Pair{u, v}
}

// Singleton reports whether the pair is a meeting point (u == v).
func (p Pair) Singleton() bool { return p.U == p.V }

// SO computes the semantic-aware normalization of Definition 3.1 for the
// pair (u,v): sum over (a,b) in I(u) x I(v) of W(a,u)*W(b,v)*sem(a,b).
// This is also the N(u,v) normalization of the iterative form. It is
// the d_u*d_v double loop a Normalizer falls back to when its measure
// is not a dense kernel, and the reference its factored form is tested
// against; callers go through a Normalizer.
func SO(g *hin.Graph, sem semantic.Measure, u, v hin.NodeID) float64 {
	iu := g.InNeighbors(u)
	iv := g.InNeighbors(v)
	wu := g.InWeights(u)
	wv := g.InWeights(v)
	var s float64
	for i, a := range iu {
		for j, b := range iv {
			s += wu[i] * wv[j] * sem.Sim(a, b)
		}
	}
	return s
}

// Transition is one SARW out-edge of a pair node, carrying the
// semantic-aware probability of Definition 3.1.
type Transition struct {
	To   Pair
	Prob float64
}

// Transitions enumerates the SARW distribution out of (u,v): the surfers
// step (backwards) to (a,b) in I(u) x I(v) with probability
// W(a,u)*W(b,v)*sem(a,b) / N(u,v). Mirror targets (a,b)/(b,a) are
// accumulated onto the canonical pair. The slice is freshly allocated.
//
// Singleton sources return nil: only the first meeting matters, so
// out-edges of singletons are removed (Section 3.2).
func (z *Normalizer) Transitions(p Pair) []Transition {
	if p.Singleton() {
		return nil
	}
	so := z.N(p.U, p.V)
	if so == 0 {
		return nil
	}
	g, sem := z.g, z.sem
	iu := g.InNeighbors(p.U)
	iv := g.InNeighbors(p.V)
	wu := g.InWeights(p.U)
	wv := g.InWeights(p.V)
	acc := make(map[Pair]float64, len(iu)*len(iv))
	order := make([]Pair, 0, len(iu)*len(iv))
	for i, a := range iu {
		for j, b := range iv {
			q := MakePair(a, b)
			if _, seen := acc[q]; !seen {
				order = append(order, q)
			}
			acc[q] += wu[i] * wv[j] * sem.Sim(a, b) / so
		}
	}
	out := make([]Transition, 0, len(order))
	for _, q := range order {
		out = append(out, Transition{To: q, Prob: acc[q]})
	}
	return out
}

// Full is the (implicit) full node-pair graph G^2: nothing is
// materialized; transitions are generated on demand.
type Full struct {
	g   *hin.Graph
	sem semantic.Measure
	z   *Normalizer
}

// NewFull wraps g with the SARW structure.
func NewFull(g *hin.Graph, sem semantic.Measure) *Full {
	return &Full{g: g, sem: sem, z: NewNormalizer(g, sem)}
}

// NumNodes reports |V|^2, the ordered-pair node count of G^2.
func (f *Full) NumNodes() int64 {
	n := int64(f.g.NumNodes())
	return n * n
}

// NumEdges reports the ordered-pair edge count of G^2: each pair (u,v) has
// |I(u)|*|I(v)| out-edges (in the reversed orientation), so the total is
// (sum_v |I(v)|)^2 = |E|^2.
func (f *Full) NumEdges() int64 {
	m := int64(f.g.NumEdges())
	return m * m
}

// Scores runs value iteration on G^2 to the fixpoint of
//
//	h(a) = c * sum_b P[a -> b] * h(b),  h(x,x) = 1
//
// and returns sim(u,v) = sem(u,v) * h(u,v) as a matrix. By Theorem 3.3
// this equals the SemSim fixpoint; the test suite uses it as a
// differential oracle against the iterative form of package core.
func (f *Full) Scores(c float64, iterations int) (*simmat.Matrix, error) {
	if c < 0 || c >= 1 {
		return nil, fmt.Errorf("pairgraph: decay factor c = %v outside [0,1)", c)
	}
	if iterations < 1 {
		return nil, fmt.Errorf("pairgraph: iterations = %d < 1", iterations)
	}
	n := f.g.NumNodes()
	// h over canonical pairs, indexed u*n+v with u <= v.
	h := make([]float64, n*n)
	next := make([]float64, n*n)
	for x := 0; x < n; x++ {
		h[x*n+x] = 1
		next[x*n+x] = 1
	}
	for k := 0; k < iterations; k++ {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				var s float64
				for _, tr := range f.z.Transitions(Pair{hin.NodeID(u), hin.NodeID(v)}) {
					s += tr.Prob * h[int(tr.To.U)*n+int(tr.To.V)]
				}
				next[u*n+v] = c * s
			}
		}
		h, next = next, h
	}
	out := simmat.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			s := f.sem.Sim(hin.NodeID(u), hin.NodeID(v)) * h[u*n+v]
			out.Set(hin.NodeID(u), hin.NodeID(v), s)
		}
	}
	return out, nil
}

// PathStats summarizes walks from non-singleton pairs to their first
// singleton, the quantities of Table 3.
type PathStats struct {
	// SampledPairs is how many start pairs were examined.
	SampledPairs int
	// AvgPaths is the mean number of distinct first-hit-singleton walks
	// per start pair (within the depth/count caps).
	AvgPaths float64
	// AvgLen is the mean length (edge count) of those walks.
	AvgLen float64
}

// PathStats samples samplePairs random non-singleton pairs and enumerates
// their first-hit singleton walks up to maxDepth edges and maxPaths walks
// per pair — the Table 3 path statistics over the full G^2.
func (f *Full) PathStats(samplePairs, maxDepth, maxPaths int, seed int64) PathStats {
	rng := rand.New(rand.NewSource(seed))
	n := f.g.NumNodes()
	var st PathStats
	var totalPaths, totalLen int64
	for s := 0; s < samplePairs; s++ {
		u := hin.NodeID(rng.Intn(n))
		v := hin.NodeID(rng.Intn(n))
		if u == v {
			v = hin.NodeID((int(v) + 1) % n)
		}
		if u == v {
			continue // single-node graph
		}
		st.SampledPairs++
		found := pathDFS(f.z, MakePair(u, v), maxDepth, maxPaths, func(length int) {
			totalLen += int64(length)
		})
		totalPaths += int64(found)
	}
	if st.SampledPairs > 0 {
		st.AvgPaths = float64(totalPaths) / float64(st.SampledPairs)
	}
	if totalPaths > 0 {
		st.AvgLen = float64(totalLen) / float64(totalPaths)
	}
	return st
}

// pathDFS enumerates first-hit singleton *simple* paths from p (no pair
// revisited within a path) up to maxDepth edges and maxPaths paths,
// invoking visit(length) per path found. Simple paths keep the count
// meaningful on cyclic pair graphs, where walks with revisits are
// unbounded. It returns the number found.
func pathDFS(z *Normalizer, p Pair, maxDepth, maxPaths int, visit func(length int)) int {
	// The expansion budget bounds total DFS work per start pair; without
	// it a start pair that rarely reaches singletons would explore its
	// entire depth-bounded neighborhood (d^(2*maxDepth) states).
	budget := 64 * maxPaths * maxDepth
	found := 0
	onPath := map[Pair]bool{p: true}
	var rec func(q Pair, depth int)
	rec = func(q Pair, depth int) {
		if found >= maxPaths || depth >= maxDepth || budget <= 0 {
			return
		}
		budget--
		for _, tr := range z.Transitions(q) {
			if found >= maxPaths || budget <= 0 {
				return
			}
			if tr.To.Singleton() {
				found++
				visit(depth + 1)
				continue
			}
			if onPath[tr.To] {
				continue
			}
			onPath[tr.To] = true
			rec(tr.To, depth+1)
			delete(onPath, tr.To)
		}
	}
	rec(p, 0)
	return found
}
