package pairgraph

import (
	"math"

	"semsim/internal/hin"
	"semsim/internal/semantic"
)

// Normalizer computes the SARW normalization N(u,v) = SO(u,v) of
// Definition 3.1 for one graph and measure. It is built once per epoch
// and is the one source of N for the SO cache, the Monte-Carlo
// estimator, the linear solve and the pair-graph transitions.
//
// Over a dense *semantic.Kernel whose domain covers the graph, N is
// summed in factored form over the kernel's concept classes. Each
// in-neighbourhood I(v) folds into a class histogram H_v of (class,
// summed in-weight) entries, kept in first-slot order so that no value
// depends on how classes are numbered, and
//
//	N(u,v) = sum_{c' in H_v} H_v[c'] * (sum_{c in H_u} H_u[c] * K[c,c'])
//	       + sum over slot pairs holding the same in-neighbour a of
//	         W(a,u) * W(a,v) * (1 - K[c_a,c_a])
//
// The correction is there because sem(a,a) = 1, while K's same-class
// cell holds the value of two distinct members. This replaces SO's
// d_u*d_v kernel probes by |H_u|*|H_v| cell reads, and a table row by
// one class-row product per u plus |H_v| reads per cell. Every other
// measure (custom, a memo-mode kernel, no kernel) sums SO's double loop.
//
// The factored sum differs from SO's in the last bits only; the
// property test bounds the relative difference by 1e-12. N and
// Row.Fill return the same bits for every pair, so table, lazy and
// direct normalizations stay interchangeable. A Normalizer is immutable
// and safe for concurrent use; a Row is not.
type Normalizer struct {
	g   *hin.Graph
	sem semantic.Measure

	// Factored form only (k != nil). Node v's histogram is entries
	// hOff[v]:hOff[v+1] of hClass/hW; gap[c] = 1 - K[c,c].
	k      *semantic.Kernel
	hOff   []int32
	hClass []int32
	hW     []float64
	gap    []float64
}

// NewNormalizer prepares N for g under sem: the class histograms when
// sem is a dense kernel over g's nodes, nothing otherwise. It costs
// O(|E|) time and memory.
func NewNormalizer(g *hin.Graph, sem semantic.Measure) *Normalizer {
	z := &Normalizer{g: g, sem: sem}
	k, ok := sem.(*semantic.Kernel)
	if !ok || !k.DenseMode() || k.Domain() < g.NumNodes() {
		return z
	}
	n, nc := g.NumNodes(), k.NumClasses()
	z.k = k
	z.gap = make([]float64, nc)
	for c := range z.gap {
		z.gap[c] = 1 - k.Cell(int32(c), int32(c))
	}
	z.hOff = make([]int32, n+1)
	z.hClass = make([]int32, 0, g.NumEdges())
	z.hW = make([]float64, 0, g.NumEdges())
	slot := make([]int32, nc) // class -> entry index + 1 within the current node
	for v := 0; v < n; v++ {
		lo := int32(len(z.hClass))
		ws := g.InWeights(hin.NodeID(v))
		for i, a := range g.InNeighbors(hin.NodeID(v)) {
			c := k.Class(a)
			if e := slot[c]; e > 0 {
				z.hW[lo+e-1] += ws[i]
				continue
			}
			z.hClass = append(z.hClass, c)
			z.hW = append(z.hW, ws[i])
			slot[c] = int32(len(z.hClass)) - lo
		}
		for _, c := range z.hClass[lo:] {
			slot[c] = 0
		}
		z.hOff[v+1] = int32(len(z.hClass))
	}
	return z
}

// N returns N(u,v), in either argument order.
func (z *Normalizer) N(u, v hin.NodeID) float64 {
	if u > v {
		u, v = v, u
	}
	if z.k == nil {
		return SO(z.g, z.sem, u, v)
	}
	lo, hi := z.hOff[u], z.hOff[u+1]
	var s float64
	for e := z.hOff[v]; e < z.hOff[v+1]; e++ {
		s += float64(z.hW[e] * z.dot(lo, hi, z.hClass[e]))
	}
	return s + z.shared(u, v, nil)
}

// dot is sum_{c in H_u} H_u[c] * K[c,c'] over u's entries [lo,hi). The
// explicit conversions round every product, so no platform fuses a
// multiply-add here and not in Row.Reset.
func (z *Normalizer) dot(lo, hi, c2 int32) float64 {
	var t float64
	for f := lo; f < hi; f++ {
		t += float64(z.hW[f] * z.k.Cell(z.hClass[f], c2))
	}
	return t
}

// shared is the correction sum: over v's slots in order, for every slot
// whose in-neighbour a is also in I(u), W_u(a) * W(a,v) * (1 -
// K[c_a,c_a]), where W_u(a) sums u's slots holding a. own, when non-nil,
// holds W_u by node (Row); otherwise W_u is found by merging the two
// in-neighbour rows, which hin keeps sorted by source.
func (z *Normalizer) shared(u, v hin.NodeID, own []float64) float64 {
	iv, wv := z.g.InNeighbors(v), z.g.InWeights(v)
	var s float64
	if own != nil {
		for j, a := range iv {
			if wa := own[a]; wa != 0 {
				s += float64(float64(wa*wv[j]) * z.gap[z.k.Class(a)])
			}
		}
		return s
	}
	iu, wu := z.g.InNeighbors(u), z.g.InWeights(u)
	i := 0
	for j, a := range iv {
		for i < len(iu) && iu[i] < a {
			i++
		}
		if i == len(iu) {
			break
		}
		var wa float64
		for r := i; r < len(iu) && iu[r] == a; r++ {
			wa += wu[r]
		}
		if wa != 0 {
			s += float64(float64(wa*wv[j]) * z.gap[z.k.Class(a)])
		}
	}
	return s
}

// Row is a cursor over one row u of the N table: Reset computes u's
// class-row product once, and Fill then costs |H_v| reads per cell,
// plus v's in-degree when v shares with u an in-neighbour whose class
// has a correction. It returns exactly the bits of Normalizer.N. A Row
// holds scratch and serves one goroutine.
type Row struct {
	z    *Normalizer
	u    hin.NodeID
	r    []float64 // r[c'] = sum_{c in H_u} H_u[c] * K[c,c']
	own  []float64 // W_u by node, nonzero on u's in-neighbours only
	mark []int32   // mark[v] == u+1: v may have a nonzero correction
}

// NewRow returns a row cursor; Reset must be called before Fill. The
// cursor's O(n) scratch is allocated by its first Reset.
func (z *Normalizer) NewRow() *Row { return &Row{z: z} }

// Reset points the cursor at row u.
func (row *Row) Reset(u hin.NodeID) {
	z := row.z
	if z.k == nil {
		row.u = u
		return
	}
	if row.r == nil {
		row.r = make([]float64, z.k.NumClasses())
		row.own = make([]float64, z.g.NumNodes())
		row.mark = make([]int32, z.g.NumNodes())
	} else {
		for _, a := range z.g.InNeighbors(row.u) {
			row.own[a] = 0
		}
	}
	row.u = u
	lo, hi := z.hOff[u], z.hOff[u+1]
	for c2 := range row.r {
		row.r[c2] = z.dot(lo, hi, int32(c2))
	}
	ws := z.g.InWeights(u)
	for i, a := range z.g.InNeighbors(u) {
		row.own[a] += ws[i]
		if z.gap[z.k.Class(a)] != 0 {
			for _, v := range z.g.OutNeighbors(a) {
				row.mark[v] = int32(u) + 1
			}
		}
	}
}

// Fill sets dst[i] = N(u, u+i) for every i, one pass over the
// histograms of u's successors: the triangle row of a dense table.
func (row *Row) Fill(dst []float64) {
	z, u := row.z, row.u
	if z.k == nil {
		for i := range dst {
			dst[i] = z.N(u, u+hin.NodeID(i))
		}
		return
	}
	stamp := int32(u) + 1
	ends, mark := z.hOff[u+1:], row.mark[u:]
	ends, mark = ends[:len(dst)], mark[:len(dst)]
	hW, hClass, r := z.hW, z.hClass, row.r
	e := z.hOff[u]
	for i := range dst {
		var s, c float64
		for end := ends[i]; e < end; e++ {
			s += float64(hW[e] * r[hClass[e]])
		}
		if mark[i] == stamp { // unmarked, every correction term is +0
			c = z.shared(u, u+hin.NodeID(i), row.own)
		}
		dst[i] = s + c
	}
}

// Recompute returns the nodes whose N values may differ between old,
// the normalizer of the previous epoch, and z: changed, the nodes whose
// in-neighbourhood changed (indexed by z's node ids), plus, in factored
// form, every node whose histogram holds a class with a kernel cell
// that changed. A pair with neither endpoint marked keeps its value bit
// for bit. When the concept-class partition of the old nodes moved, or
// one side is factored and the other not, every node is marked. The
// unfactored sum carries over as long as the measure's values on
// unchanged node pairs do, which callers vouch for. changed is not
// modified.
func (z *Normalizer) Recompute(old *Normalizer, changed []bool) []bool {
	out := append([]bool(nil), changed...)
	if z.k == old.k {
		return out
	}
	n := old.g.NumNodes()
	markAll := z.k == nil || old.k == nil
	for v := 0; v < n && !markAll; v++ {
		markAll = z.k.Class(hin.NodeID(v)) != old.k.Class(hin.NodeID(v))
	}
	if markAll {
		for v := range out {
			out[v] = true
		}
		return out
	}
	nc := old.k.NumClasses()
	moved := make([]bool, nc)
	for a := 0; a < nc; a++ {
		for b := a; b < nc; b++ {
			x, y := old.k.Cell(int32(a), int32(b)), z.k.Cell(int32(a), int32(b))
			if math.Float64bits(x) != math.Float64bits(y) {
				moved[a], moved[b] = true, true
			}
		}
	}
	for v := 0; v < n; v++ {
		for e := z.hOff[v]; e < z.hOff[v+1] && !out[v]; e++ {
			// A class past the old ones is held only by changed nodes.
			c := z.hClass[e]
			out[v] = int(c) >= nc || moved[c]
		}
	}
	return out
}
