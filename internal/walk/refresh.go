package walk

import (
	"fmt"

	"semsim/internal/hin"
)

// RefreshStats summarizes one incremental repair pass. The facade's
// mutation path feeds Resampled into the repair metrics and hands
// Touched to MeetIndex.Repair, which checks it against the refreshed
// index before rebuilding the inverted index.
type RefreshStats struct {
	// Resampled counts walks whose suffix was redrawn because they
	// visited a node with a changed in-neighborhood.
	Resampled int
	// NewNodes counts nodes present in the new graph but not the old
	// one; each gets a full set of freshly sampled walks.
	NewNodes int
	// Touched[v] is true when node v's walk block differs from the old
	// index (some walk resampled, or v is a new node). len = new node
	// count.
	Touched []bool
}

// refreshSalt offsets the RNG streams Refresh draws from, so a resample
// never replays the stream that drew the walk it replaces.
const refreshSalt = 0x9e37

// Refresh adapts the index to an updated graph by resampling only the
// invalidated walk suffixes — the dynamic-network maintenance the paper's
// Section 7 leaves as future work (in the spirit of READS: random-walk
// indexes are update-friendly because an edge change only invalidates
// walks through the touched neighborhoods).
//
// changed lists the nodes whose in-neighborhood differs between the old
// and new graph (hin.ChangedInNeighborhoodsGrown). A stored walk stays
// valid up to (and including) its first visit to a changed node — the
// steps that led there were drawn from unchanged distributions — and is
// resampled from that position under the new graph. The refreshed index
// is distributed identically to a fresh Build over the new graph.
//
// The node set may grow (new nodes get fresh walks); shrinking requires
// a full rebuild. The receiver is never mutated, so it keeps serving an
// older snapshot while the refreshed one is assembled: a block with a
// cut or a new node is copied before it is patched, and every other
// block is shared with the receiver — a block the receiver reads from
// its file stays file-backed. Finding the cuts decodes every
// file-backed block; a decode failure there is an error, since
// publishing an epoch built on degraded walks would be worse than
// refusing the commit.
func (ix *Index) Refresh(newG *hin.Graph, changed []hin.NodeID, seed int64) (*Index, *RefreshStats, error) {
	n2 := newG.NumNodes()
	if n2 < ix.n {
		return nil, nil, fmt.Errorf("walk: refresh cannot remove nodes (%d -> %d); rebuild",
			ix.n, n2)
	}
	isChanged := make([]bool, ix.n)
	for _, v := range changed {
		if int(v) < 0 || int(v) >= n2 {
			return nil, nil, fmt.Errorf("walk: changed node %d out of range", v)
		}
		// Nodes at or past the old count are new: old walks cannot visit
		// them, so only old-range ids participate in cut detection.
		if int(v) < ix.n {
			isChanged[v] = true
		}
	}

	out := newIndex(newG, n2, ix.nw, ix.t, ix.bn)
	out.file = ix.file
	copy(out.blocks, ix.blocks)
	st := &RefreshStats{Touched: make([]bool, n2)}
	nw, stride := ix.nw, ix.stride
	for b := range out.blocks {
		lo, hi := out.span(b)
		// Nodes of this block that existed in the old epoch: [lo, oldHi).
		oldHi := max(lo, min(hi, ix.n))
		var src, dst *block
		if lo < ix.n {
			var err error
			if src = ix.blocks[b]; src == nil {
				if src, err = ix.file.fetch(b, nil); err != nil {
					return nil, nil, err
				}
			}
		}
		// patch returns the copy of src this pass writes to, sized for
		// the block's new node count.
		patch := func() *block {
			if dst == nil {
				dst = newBlock(hi-lo, nw, stride)
				if src != nil {
					copy(dst.walks, src.walks)
					copy(dst.lens, src.lens)
				}
			}
			return dst
		}
		for k := 0; k < (oldHi-lo)*nw; k++ {
			// First position whose outgoing step is invalidated. The scan
			// is bounded by the live length, which also covers the case
			// of a walk that stopped early at a changed node and can now
			// continue (its last live node is position lens-1).
			cut := -1
			for s, x := range src.walks[k*stride : k*stride+int(src.lens[k])] {
				if isChanged[x] {
					cut = s
					break
				}
			}
			if cut < 0 {
				continue
			}
			v := lo + k/nw
			st.Resampled++
			st.Touched[v] = true
			w := patch().walks[k*stride : (k+1)*stride]
			rng := newRNG(seed, uint64(v)*1e9+uint64(k%nw)+refreshSalt)
			dst.lens[k] = sampleFrom(newG, w, cut, &rng)
		}
		// New nodes get fresh walks on their own RNG streams, exactly as
		// a fresh Build would.
		if oldHi < hi {
			for v := oldHi; v < hi; v++ {
				st.Touched[v] = true
			}
			st.NewNodes += hi - oldHi
			out.sampleNodes(newG, patch(), lo, oldHi, hi, seed, refreshSalt)
		}
		if dst != nil {
			out.blocks[b] = dst
		}
	}
	return out.tally(), st, nil
}
