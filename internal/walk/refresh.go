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
// a full rebuild. The receiver is never mutated: storage is copied and
// then patched per-node — untouched blocks (walks and live lengths) are
// byte-identical to the old index, and only touched blocks are
// recomputed, so the old index keeps serving an older snapshot while
// the refreshed one is assembled.
func (ix *Index) Refresh(newG *hin.Graph, changed []hin.NodeID, seed int64) (*Index, *RefreshStats, error) {
	if ix.lazy != nil {
		return ix.refreshLazy(newG, changed, seed)
	}
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

	out := &Index{
		g:      newG,
		n:      n2,
		nw:     ix.nw,
		t:      ix.t,
		stride: ix.stride,
		walks:  make([]int32, n2*ix.nw*ix.stride),
		lens:   make([]int32, n2*ix.nw),
	}
	// Both tables are node-major, so the old index is one contiguous
	// prefix of the new storage.
	copy(out.walks, ix.walks)
	copy(out.lens, ix.lens)

	st := &RefreshStats{Touched: make([]bool, n2)}
	for v := 0; v < ix.n; v++ {
		for i := 0; i < ix.nw; i++ {
			si := v*ix.nw + i
			w := out.walks[si*ix.stride : (si+1)*ix.stride]
			// First position whose outgoing step is invalidated. The scan
			// is bounded by the live length, which also covers the case of
			// a walk that stopped early at a changed node and can now
			// continue (its last live node is position lens-1).
			cut := -1
			for s := 0; s < int(ix.lens[si]); s++ {
				if isChanged[w[s]] {
					cut = s
					break
				}
			}
			if cut < 0 {
				continue
			}
			st.Resampled++
			st.Touched[v] = true
			rng := newRNG(seed, uint64(v)*1e9+uint64(i)+0x9e37)
			cur := hin.NodeID(w[cut])
			newLen := int32(ix.stride)
			for s := cut + 1; s <= ix.t; s++ {
				in := newG.InNeighbors(cur)
				if len(in) == 0 {
					newLen = int32(s)
					for ; s <= ix.t; s++ {
						w[s] = Stop
					}
					break
				}
				cur = in[rng.intn(len(in))]
				w[s] = int32(cur)
			}
			out.lens[si] = newLen
		}
	}
	// New nodes get fresh walks on their own RNG streams, exactly as a
	// fresh Build would (sampleWalk maintains lens as it goes).
	for v := ix.n; v < n2; v++ {
		st.Touched[v] = true
		st.NewNodes++
		for i := 0; i < ix.nw; i++ {
			rng := newRNG(seed, uint64(v)*1e9+uint64(i)+0x9e37)
			out.sampleWalk(hin.NodeID(v), i, &rng)
		}
	}
	return out, st, nil
}
