package semsim

import (
	"errors"
	"fmt"

	"semsim/internal/hin"
	"semsim/internal/mc"
	"semsim/internal/semantic"
	"semsim/internal/simrank"
)

// ErrStaleMutator is returned by Commit when another batch committed
// after this Mutator was created: its prospective node ids and edge ops
// were built against a snapshot that is no longer current. Create a
// fresh Mutator from the new epoch and replay the ops.
var ErrStaleMutator = errors.New("semsim: mutator is stale: another batch committed since NewMutator")

// seedStride separates the walk-resampling seed streams of successive
// epochs (the 64-bit golden ratio, the usual stream splitter).
const seedStride = int64(-0x61C8864680B583EB) // 0x9E3779B97F4A7C15 as int64

// Mutator batches graph and semantic mutations against one index epoch
// and applies them atomically with Commit. Ops accumulate locally —
// nothing is visible to queries until Commit swaps in the successor
// snapshot. A Mutator is not safe for concurrent use; concurrent
// writers each take their own Mutator and serialize on Commit (the
// loser of a race gets ErrStaleMutator and replays).
type Mutator struct {
	ix   *Index
	base *snapshot

	addEdges  []Edge
	dropEdges []hin.EdgeKey
	newNodes  []newNode
	newNames  map[string]NodeID
	icUpdates map[int32]float64
	err       error
}

type newNode struct {
	name, label string
}

// CommitStats reports what one committed batch did.
type CommitStats struct {
	// Epoch is the epoch the commit published (0 is the build epoch, so
	// the first commit publishes 1).
	Epoch uint64
	// Ops counts the batched mutations applied.
	Ops int
	// ResampledWalks is how many of the walk index's n*n_w walks the
	// incremental repair had to resample (walks through changed
	// in-neighborhoods); the rest carried over untouched.
	ResampledWalks int
	// NewNodes is how many nodes the batch added.
	NewNodes int
}

// NewMutator starts a mutation batch against the current epoch. The
// returned Mutator sees a frozen view: node ids it hands out and edge
// ops it records resolve against the snapshot current at this call.
func (ix *Index) NewMutator() *Mutator { return ix.Pin().NewMutator() }

// NewMutator starts a mutation batch against the view's epoch, so the
// names a caller resolved on the view's Graph are the ones the batch
// builds on. Commit fails with ErrStaleMutator when the view's epoch is
// no longer current.
func (p View) NewMutator() *Mutator {
	return &Mutator{ix: p.ix, base: p.s}
}

// AddNode schedules a node with a unique external name and vertex
// label, returning its prospective id — valid for AddEdge calls in the
// same batch and final once Commit succeeds (builder ids are assigned
// in insertion order, so the prospective id is exact, not a guess). A
// name that already exists in the graph or in this batch records an
// error that Commit reports.
func (m *Mutator) AddNode(name, label string) NodeID {
	if _, exists := m.base.g.NodeByName(name); exists {
		m.fail(fmt.Errorf("semsim: AddNode %q: name already in graph", name))
		return -1
	}
	if _, dup := m.newNames[name]; dup {
		m.fail(fmt.Errorf("semsim: AddNode %q: name already added in this batch", name))
		return -1
	}
	id := NodeID(m.base.g.NumNodes() + len(m.newNodes))
	m.newNodes = append(m.newNodes, newNode{name: name, label: label})
	if m.newNames == nil {
		m.newNames = make(map[string]NodeID)
	}
	m.newNames[name] = id
	return id
}

// AddEdge schedules a directed edge. Endpoints may be existing nodes or
// prospective ids from AddNode in the same batch; weights must be
// finite and > 0 (validated at Commit by the graph builder).
func (m *Mutator) AddEdge(from, to NodeID, label string, weight float64) {
	m.addEdges = append(m.addEdges, Edge{From: from, To: to, Label: label, Weight: weight})
}

// RemoveEdge schedules removal of every parallel copy of the
// (from, to, label) edge. Removing an edge that does not exist is a
// no-op, matching WithoutEdges.
func (m *Mutator) RemoveEdge(from, to NodeID, label string) {
	m.dropEdges = append(m.dropEdges, hin.EdgeKey{From: from, To: to, Label: label})
}

// UpdateConceptFreq schedules an information-content update for one
// concept (graph node) — the dynamic-semantics hook of Section 2.2: ic
// is the new IC value in (0,1], clamped like Taxonomy.SetIC. Requires
// the index's measure to be taxonomy-backed (Lin, Resnik, Wu–Palmer,
// Jiang–Conrath, Path); Commit fails otherwise.
func (m *Mutator) UpdateConceptFreq(concept NodeID, ic float64) {
	if m.icUpdates == nil {
		m.icUpdates = make(map[int32]float64)
	}
	m.icUpdates[int32(concept)] = ic
}

// Ops reports how many mutations the batch holds.
func (m *Mutator) Ops() int {
	return len(m.addEdges) + len(m.dropEdges) + len(m.newNodes) + len(m.icUpdates)
}

func (m *Mutator) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// Commit applies the batch and publishes the successor epoch. The
// repair is incremental — only walks through changed in-neighborhoods
// are resampled, and only affected SLING-cache rows and kernel concept
// pairs are recomputed — while the meet index is rebuilt from the new
// walks (one counting pass and one fill). The result is equivalent to
// rebuilding the index from scratch on the mutated graph (identical up
// to Monte-Carlo resampling noise on the repaired walks). Queries racing with Commit never block and never
// see a torn state: they run to completion on whichever epoch they
// loaded first. With shadow verification on, Commit returns once the
// new epoch is published; its shadow reference is built in the
// background (see IndexOptions.ShadowRate).
//
// Commits serialize on the index; a Mutator created before another
// batch committed fails with ErrStaleMutator. An empty batch is a
// no-op reporting the current epoch.
func (m *Mutator) Commit() (CommitStats, error) {
	if m.err != nil {
		return CommitStats{}, m.err
	}
	ix := m.ix
	if m.Ops() == 0 {
		return CommitStats{Epoch: ix.snap.Load().epoch}, nil
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	cur := ix.snap.Load()
	if cur != m.base {
		return CommitStats{}, ErrStaleMutator
	}
	opts := ix.opts
	commitLat := ix.metrics.Histogram("semsim_commit_seconds",
		"wall time of one Mutator.Commit: incremental walk/cache/kernel repair plus snapshot assembly", nil)
	t0 := commitLat.Start()

	newG, err := m.buildGraph(cur.g)
	if err != nil {
		return CommitStats{}, err
	}
	n2 := newG.NumNodes()
	changed, err := hin.ChangedInNeighborhoodsGrown(cur.g, newG)
	if err != nil {
		return CommitStats{}, err
	}

	epoch := cur.epoch + 1
	newWalks, rst, err := cur.walks.Refresh(newG, changed, opts.Seed+int64(epoch)*seedStride)
	if err != nil {
		return CommitStats{}, err
	}

	// Semantic side: grow the taxonomy under the measure for new nodes,
	// apply IC updates copy-on-write, and rebind the measure — the old
	// epoch keeps scoring against its own taxonomy.
	newBase := ix.baseSem
	semChanged := len(m.icUpdates) > 0
	if k := len(m.newNodes); k > 0 || semChanged {
		tax, ok := semantic.TaxonomyOf(newBase)
		if !ok && semChanged {
			return CommitStats{}, fmt.Errorf("semsim: UpdateConceptFreq requires a taxonomy-backed measure, have %s", newBase.Name())
		}
		if ok {
			if k > 0 {
				tax = tax.Grow(k)
			}
			if semChanged {
				tax = tax.WithIC(m.icUpdates)
			}
			newBase, _ = semantic.RebindTaxonomy(newBase, tax)
		}
	}

	// Kernel repair: cells whose concept classes the IC updates cannot
	// have reached carry over bit-identically; new nodes' classes are
	// affected by construction.
	sem := newBase
	kern := cur.kernel
	if cur.kernel != nil {
		if semChanged || n2 > cur.g.NumNodes() {
			affected := make([]bool, n2)
			if semChanged {
				tax, _ := semantic.TaxonomyOf(newBase)
				for x := range m.icUpdates {
					for v := 0; v < n2; v++ {
						if tax.IsAncestor(x, int32(v)) {
							affected[v] = true
						}
					}
				}
			}
			kern, err = cur.kernel.Refresh(newBase, n2, affected, semantic.KernelOptions{
				MemoryBudget: opts.KernelMemoryBudget,
				Workers:      opts.Workers,
				Metrics:      opts.Metrics,
			})
			if err != nil {
				return CommitStats{}, err
			}
		}
		sem = kern
	}

	// SLING cache: an IC update leaks the measure into every stored
	// normalization, so it forces a fresh cache (re-warmed per the
	// build options); pure edge/node edits migrate, carrying every
	// pair with both endpoints' in-neighborhoods unchanged.
	var cache *mc.SOCache
	if cur.cache != nil {
		if semChanged {
			cache = mc.NewSOCache(newG, sem, opts.SLINGCutoff)
			if opts.WarmCache {
				warmSOCache(cache, opts, true)
			}
		} else {
			changedBool := make([]bool, n2)
			for _, v := range changed {
				changedBool[v] = true
			}
			cache = cur.cache.Migrate(newG, sem, changedBool, opts.Workers)
		}
	}

	est, err := mc.New(newWalks, sem, mc.Options{
		C: opts.C, Theta: opts.Theta, Cache: cache,
		Workers: opts.Workers, Metrics: opts.Metrics,
	})
	if err != nil {
		return CommitStats{}, err
	}
	srmc, err := simrank.NewMC(newWalks, opts.C)
	if err != nil {
		return CommitStats{}, err
	}

	snap := &snapshot{epoch: epoch, g: newG, sem: sem, walks: newWalks,
		est: est, srmc: srmc, cache: cache, kernel: kern,
		refReady: make(chan struct{})}
	if cur.meet != nil {
		repairLat := ix.metrics.Histogram("semsim_commit_meet_repair_seconds",
			"wall time of the meet-index rebuild inside Commit", nil)
		tr := repairLat.Start()
		snap.meet, err = cur.meet.Repair(newWalks, rst.Touched)
		repairLat.ObserveSince(tr)
		if err != nil {
			return CommitStats{}, err
		}
	}
	if err := snap.finish(opts); err != nil {
		return CommitStats{}, err
	}

	ix.baseSem = newBase
	ix.publish(snap)
	commitLat.ObserveSince(t0)
	ix.metrics.Counter("semsim_commit_total",
		"Mutation batches committed.").Inc()
	ix.metrics.Counter("semsim_commit_ops_total",
		"Individual mutations (edge/node/concept ops) applied by commits.").Add(int64(m.Ops()))
	ix.metrics.Counter("semsim_commit_walks_resampled_total",
		"Walks resampled by incremental repair across all commits.").Add(int64(rst.Resampled))
	return CommitStats{
		Epoch:          epoch,
		Ops:            m.Ops(),
		ResampledWalks: rst.Resampled,
		NewNodes:       rst.NewNodes,
	}, nil
}

// buildGraph materializes the batch's successor graph: old nodes in id
// order, batch nodes appended (so prospective ids are exact), old edges
// minus the drop set, batch edges appended.
func (m *Mutator) buildGraph(g *Graph) (*Graph, error) {
	b := hin.NewBuilder()
	for v := 0; v < g.NumNodes(); v++ {
		b.AddNode(g.NodeName(NodeID(v)), g.NodeLabel(NodeID(v)))
	}
	for _, nn := range m.newNodes {
		b.AddNode(nn.name, nn.label)
	}
	if len(m.dropEdges) == 0 {
		g.Edges(func(e Edge) bool {
			b.AddEdge(e.From, e.To, e.Label, e.Weight)
			return true
		})
	} else {
		drop := make(map[hin.EdgeKey]bool, len(m.dropEdges))
		for _, d := range m.dropEdges {
			drop[d] = true
		}
		g.Edges(func(e Edge) bool {
			if !drop[hin.EdgeKey{From: e.From, To: e.To, Label: e.Label}] {
				b.AddEdge(e.From, e.To, e.Label, e.Weight)
			}
			return true
		})
	}
	for _, e := range m.addEdges {
		b.AddEdge(e.From, e.To, e.Label, e.Weight)
	}
	return b.Build()
}
