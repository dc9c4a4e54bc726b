package pairgraph

import (
	"fmt"
	"math"
	"sort"

	"semsim/internal/hin"
	"semsim/internal/semantic"
)

// ReduceOptions configure the construction of G^2_theta.
type ReduceOptions struct {
	// C is the decay factor; bypass-walk mass is discounted by c per
	// extra step exactly as in Definition 3.4 (weight P[w] * c^(l-1)).
	C float64
	// Theta keeps only pairs with sem(u,v) > Theta (plus the drain).
	Theta float64
	// BypassDepth bounds the length of omitted walks folded into bypass
	// edges; probability mass beyond the bound flows to the drain,
	// lowering retained scores by at most c^BypassDepth. Default 8.
	BypassDepth int
	// MinProb prunes bypass exploration below this probability mass
	// (also drained). Default 1e-12.
	MinProb float64
	// MaxExpansions bounds the bypass-folding work per retained source,
	// measured in SARW transitions processed; mass still pending when
	// the budget runs out drains. It guards against quadratic blowups
	// on graphs where theta leaves a dense dropped region. Default 2e5.
	MaxExpansions int
}

func (o *ReduceOptions) fill() error {
	if o.C <= 0 || o.C >= 1 {
		return fmt.Errorf("pairgraph: decay factor c = %v outside (0,1)", o.C)
	}
	if o.Theta <= 0 || o.Theta >= 1 {
		return fmt.Errorf("pairgraph: theta = %v outside (0,1)", o.Theta)
	}
	if o.BypassDepth == 0 {
		o.BypassDepth = 6
	}
	if o.BypassDepth < 1 {
		return fmt.Errorf("pairgraph: BypassDepth = %d < 1", o.BypassDepth)
	}
	if o.MinProb == 0 {
		o.MinProb = 1e-12
	}
	if o.MaxExpansions == 0 {
		o.MaxExpansions = 2e5
	}
	return nil
}

// Reduced is the materialized graph G^2_theta of Definition 3.4: the
// pairs whose semantic similarity exceeds theta, a drain node D absorbing
// omitted probability mass, and edges whose weights fold the SARW
// transition probabilities of omitted walks (discounted by c per extra
// step). Scores over Reduced equal full-G^2 scores for retained pairs up
// to the bypass depth bound (Theorem 3.5).
type Reduced struct {
	g    *hin.Graph
	sem  semantic.Measure
	opts ReduceOptions

	pairs []Pair         // canonical retained pairs, sorted
	index map[Pair]int32 // pair -> position in pairs

	// CSR over retained pairs; weights are probability-times-decay
	// masses: a direct SARW transition contributes its probability, a
	// bypass walk contributes P[w] * c^(l(w)-1).
	off    []int32
	to     []int32
	w      []float64
	drainW []float64 // per retained pair, mass absorbed by D

	h []float64 // value-iteration fixpoint, filled by Solve
}

// Reduce builds G^2_theta.
func Reduce(g *hin.Graph, sem semantic.Measure, opts ReduceOptions) (*Reduced, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	r := &Reduced{g: g, sem: sem, opts: opts, index: make(map[Pair]int32)}

	// Retained pairs: sem(u,v) > theta. Singletons always qualify
	// (sem(x,x) = 1 > theta).
	for u := 0; u < n; u++ {
		for v := u; v < n; v++ {
			if u == v || sem.Sim(hin.NodeID(u), hin.NodeID(v)) > opts.Theta {
				p := Pair{hin.NodeID(u), hin.NodeID(v)}
				r.index[p] = int32(len(r.pairs))
				r.pairs = append(r.pairs, p)
			}
		}
	}

	r.off = make([]int32, len(r.pairs)+1)
	r.drainW = make([]float64, len(r.pairs))

	type edge struct {
		to int32
		w  float64
	}
	var rowEdges []edge

	// Transitions(q) depends only on q, yet the bypass folding below
	// revisits the same dropped pair along many walks and from many
	// retained sources. Memoizing the transition lists for the duration
	// of the build turns the dominant cost from
	// O(expansions * |in(u)|*|in(v)|) into O(distinct pairs visited);
	// on graphs where theta drops most pairs this is the difference
	// between seconds and hours. The memo is released with the builder.
	z := NewNormalizer(g, sem)
	memo := make(map[Pair][]Transition)
	trans := func(q Pair) []Transition {
		if t, ok := memo[q]; ok {
			return t
		}
		t := z.Transitions(q)
		memo[q] = t
		return t
	}

	for i, p := range r.pairs {
		rowEdges = rowEdges[:0]
		if !p.Singleton() {
			acc := make(map[int32]float64)
			var drained float64
			expansions := 0
			// Level-synchronous folding of omitted walks: frontier[q]
			// aggregates the probability-times-decay mass reaching
			// dropped pair q via walks of the current length. Mass onto
			// retained pairs is recorded immediately; frontier mass
			// below MinProb, beyond the depth bound, or past the
			// expansion budget drains. Aggregating per pair keeps each
			// level linear in distinct pairs (a per-walk depth-first
			// fold re-enumerates every walk and blows up when theta
			// drops most pairs), and pruning the combined mass drains
			// no more than a per-walk bound would, so scores stay
			// within Theorem 3.5's envelope. forder pins the iteration
			// order so the floating-point sums are deterministic.
			frontier := make(map[Pair]float64)
			var forder []Pair
			route := func(q Pair, mass float64) {
				if j, ok := r.index[q]; ok {
					acc[j] += mass
					return
				}
				if _, ok := frontier[q]; !ok {
					forder = append(forder, q)
				}
				frontier[q] += mass
			}
			for _, tr := range trans(p) {
				route(tr.To, tr.Prob)
			}
			for depth := 1; depth < opts.BypassDepth && len(forder) > 0; depth++ {
				cur, curOrder := frontier, forder
				frontier = make(map[Pair]float64, len(cur))
				forder = make([]Pair, 0, len(curOrder))
				for _, q := range curOrder {
					mass := cur[q]
					if mass < opts.MinProb || expansions >= opts.MaxExpansions {
						drained += mass
						continue
					}
					trs := trans(q)
					expansions += len(trs)
					if len(trs) == 0 {
						drained += mass // dead end: the walks never return
						continue
					}
					for _, tr := range trs {
						route(tr.To, mass*tr.Prob*opts.C)
					}
				}
			}
			for _, q := range forder {
				drained += frontier[q] // depth bound reached
			}

			// The SARW distribution out of a non-singleton pair with
			// in-edges sums to 1; whatever was not folded onto retained
			// pairs goes to the drain (Definition 3.4's weight
			// difference), including decay lost inside bypass walks.
			var kept float64
			keys := make([]int32, 0, len(acc))
			for j := range acc {
				keys = append(keys, j)
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			for _, j := range keys {
				rowEdges = append(rowEdges, edge{to: j, w: acc[j]})
				kept += acc[j]
			}
			total := kept + drained
			if total > 0 {
				// Out-mass in G^2 is 1 whenever the pair has any
				// out-edges; the drain absorbs the deficit.
				r.drainW[i] = 1 - kept
				if r.drainW[i] < 0 {
					r.drainW[i] = 0
				}
			}
		}
		for _, e := range rowEdges {
			r.to = append(r.to, e.to)
			r.w = append(r.w, e.w)
		}
		r.off[i+1] = int32(len(r.to))
	}
	return r, nil
}

// NumPairs reports the number of retained canonical pairs (excluding the
// drain).
func (r *Reduced) NumPairs() int { return len(r.pairs) }

// MemoryBytes estimates the reduction's storage: the retained-pair table
// and its index, the CSR edge arrays, the drain weights and the solved
// fixpoint vector. Map overhead is approximated by its entry payload.
func (r *Reduced) MemoryBytes() int64 {
	var m int64
	m += int64(len(r.pairs)) * 8  // pairs: two NodeIDs
	m += int64(len(r.index)) * 12 // index: pair key + int32 value
	m += int64(len(r.off)) * 4
	m += int64(len(r.to)) * 4
	m += int64(len(r.w)) * 8
	m += int64(len(r.drainW)) * 8
	m += int64(len(r.h)) * 8
	return m
}

// NumNodesOrdered reports the retained node count in ordered-pair terms
// (comparable with Full.NumNodes): non-singleton canonical pairs count
// twice. The drain is excluded.
func (r *Reduced) NumNodesOrdered() int64 {
	var c int64
	for _, p := range r.pairs {
		if p.Singleton() {
			c++
		} else {
			c += 2
		}
	}
	return c
}

// NumEdgesOrdered reports the retained edge count in ordered-pair terms
// (every canonical edge has a distinct mirror since singleton sources have
// no out-edges). Drain edges are included.
func (r *Reduced) NumEdgesOrdered() int64 {
	edges := int64(len(r.to))
	for _, w := range r.drainW {
		if w > 0 {
			edges++
		}
	}
	return edges * 2
}

// Contains reports whether (u,v) was retained.
func (r *Reduced) Contains(u, v hin.NodeID) bool {
	_, ok := r.index[MakePair(u, v)]
	return ok
}

// Solve runs value iteration h(a) = c * sum_b W(a->b) h(b) with
// h(singleton) = 1 and h(drain) = 0 until the largest change drops below
// tol or iterations are exhausted. It must be called before Score.
func (r *Reduced) Solve(iterations int, tol float64) error {
	if iterations < 1 {
		return fmt.Errorf("pairgraph: iterations = %d < 1", iterations)
	}
	np := len(r.pairs)
	r.h = make([]float64, np)
	next := make([]float64, np)
	for i, p := range r.pairs {
		if p.Singleton() {
			r.h[i] = 1
			next[i] = 1
		}
	}
	for k := 0; k < iterations; k++ {
		var maxDelta float64
		for i, p := range r.pairs {
			if p.Singleton() {
				continue
			}
			var s float64
			for e := r.off[i]; e < r.off[i+1]; e++ {
				s += r.w[e] * r.h[r.to[e]]
			}
			s *= r.opts.C
			if d := math.Abs(s - r.h[i]); d > maxDelta {
				maxDelta = d
			}
			next[i] = s
		}
		r.h, next = next, r.h
		if tol > 0 && maxDelta < tol {
			break
		}
	}
	return nil
}

// Score returns s_theta(u,v) = sem(u,v) * h(u,v) for retained pairs and 0
// for dropped ones (the paper's definition). Solve must have run.
func (r *Reduced) Score(u, v hin.NodeID) float64 {
	if r.h == nil {
		panic("pairgraph: Score called before Solve")
	}
	if u == v {
		return 1
	}
	i, ok := r.index[MakePair(u, v)]
	if !ok {
		return 0
	}
	return r.sem.Sim(u, v) * r.h[i]
}

// ScoredPair is one result of a similarity join.
type ScoredPair struct {
	U, V  hin.NodeID
	Score float64
}

// PairsAbove enumerates every distinct pair whose SemSim score is at least
// minScore — the similarity-join workload (Zheng et al., PVLDB'13, cited
// as [46]) that G^2_theta makes tractable: by Prop 2.5 any pair with
// sim >= minScore has sem >= minScore, so a reduction built with
// Theta < minScore provably contains all join results. Solve must have
// run. Results are sorted by descending score (ties by node ids).
func (r *Reduced) PairsAbove(minScore float64) ([]ScoredPair, error) {
	if r.h == nil {
		return nil, fmt.Errorf("pairgraph: PairsAbove called before Solve")
	}
	if minScore <= r.opts.Theta {
		return nil, fmt.Errorf("pairgraph: minScore %v must exceed the reduction theta %v "+
			"(pairs below theta were dropped)", minScore, r.opts.Theta)
	}
	var out []ScoredPair
	for i, p := range r.pairs {
		if p.Singleton() {
			continue
		}
		score := r.sem.Sim(p.U, p.V) * r.h[i]
		if score >= minScore {
			out = append(out, ScoredPair{U: p.U, V: p.V, Score: score})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		if out[a].U != out[b].U {
			return out[a].U < out[b].U
		}
		return out[a].V < out[b].V
	})
	return out, nil
}

// PathStats enumerates first-hit singleton *simple* paths inside the
// reduced graph from every retained non-singleton pair (up to maxDepth
// edges and maxPaths paths per pair) — the Table 3 path statistics.
func (r *Reduced) PathStats(maxDepth, maxPaths int) PathStats {
	var st PathStats
	var totalPaths, totalLen int64
	onPath := make(map[int32]bool)
	for i, p := range r.pairs {
		if p.Singleton() {
			continue
		}
		st.SampledPairs++
		found := 0
		budget := 64 * maxPaths * maxDepth
		for k := range onPath {
			delete(onPath, k)
		}
		onPath[int32(i)] = true
		var rec func(j int32, depth int)
		rec = func(j int32, depth int) {
			if found >= maxPaths || depth >= maxDepth || budget <= 0 {
				return
			}
			budget--
			for e := r.off[j]; e < r.off[j+1]; e++ {
				if found >= maxPaths || budget <= 0 {
					return
				}
				tgt := r.to[e]
				if r.pairs[tgt].Singleton() {
					found++
					totalLen += int64(depth + 1)
					continue
				}
				if onPath[tgt] {
					continue
				}
				onPath[tgt] = true
				rec(tgt, depth+1)
				delete(onPath, tgt)
			}
		}
		rec(int32(i), 0)
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
