package mc

import (
	"semsim/internal/hin"
	"semsim/internal/pairgraph"
	"semsim/internal/semantic"
)

// Migrate builds the successor cache for an updated graph (and possibly
// updated measure), reusing every stored value whose pair is unaffected:
// SO(a,b) depends only on the in-neighborhoods of a and b and the
// measure over their in-neighbor pairs, so a pair with neither endpoint
// in changed carries over bit-identically. changed is indexed by
// new-graph node id (new nodes are changed by construction). The
// successor's normalizer widens changed by the nodes its form of N
// cannot carry (pairgraph.Normalizer.Recompute): over a dense semantic
// kernel, those whose histograms hold a class with a changed kernel
// cell, and every node when the class partition moved. Otherwise the
// measure must be value-compatible with the old one on unchanged
// concept pairs — when a measure without a dense kernel changed (e.g.
// an IC update), callers must start from a fresh NewSOCache instead,
// because sem leaks into every stored normalization.
//
// Dense mode migrates to a dense table of the new size: unaffected rows
// are copied, affected cells (changed endpoint or new node) are
// recomputed in parallel. The receiver is never mutated.
func (c *SOCache) Migrate(newG *hin.Graph, newSem semantic.Measure, changed []bool, workers int) *SOCache {
	out := NewSOCache(newG, newSem, c.cutoff)
	n2 := newG.NumNodes()
	changed = out.norm.Recompute(c.norm, changed)

	// Map mode: carry over unaffected entries shard by shard.
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k, v := range sh.vals {
			a, b := hin.NodeID(k>>32), hin.NodeID(uint32(k))
			if int(b) < n2 && !changed[a] && !changed[b] {
				out.shards[i].vals[k] = v
			}
		}
		sh.mu.RUnlock()
	}

	d := c.dense.Load()
	if d == nil {
		return out
	}
	nd := newSODense(n2)
	forEachRow(out.norm, n2, workers, func(r *pairgraph.Row, a int) {
		row := nd.row(a) // row[v-a] = SO(a,v)
		if !changed[a] && a < d.n {
			copy(row, d.row(a))
			for v := a; v < n2; v++ {
				if v >= d.n || changed[v] {
					row[v-a] = out.norm.N(hin.NodeID(a), hin.NodeID(v))
				}
			}
			return
		}
		r.Reset(hin.NodeID(a))
		r.Fill(row)
	})
	out.dense.Store(nd)
	return out
}
