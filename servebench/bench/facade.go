package bench

import (
	"fmt"

	"semsim"
)

// ServeOptions restates the index options `semsim serve` builds with at
// its default flags (serve forces MeetIndex and AutoPlan). Shadow
// verification is left off: it observes scores without changing them.
func ServeOptions() semsim.IndexOptions {
	return semsim.IndexOptions{
		NumWalks: 150, WalkLength: 15, C: 0.6, Theta: 0.05,
		SLINGCutoff: 0.1, Seed: 1, Parallel: true,
		MeetIndex: true, AutoPlan: true,
	}
}

// ServeShadowRate is serve's default -shadow-rate.
const ServeShadowRate = 256

// Categories lists the graph's category nodes in node order: the
// concepts batches update.
func Categories(g *semsim.Graph) []string {
	var out []string
	for v := 0; v < g.NumNodes(); v++ {
		if g.NodeLabel(semsim.NodeID(v)) == "category" {
			out = append(out, g.NodeName(semsim.NodeID(v)))
		}
	}
	return out
}

// Apply commits one batch through Index.NewMutator with the name
// resolution `semsim serve` uses for /mutate: names added earlier in the
// batch resolve for later ops.
func Apply(idx *semsim.Index, b Batch) error {
	g := idx.Graph()
	m := idx.NewMutator()
	minted := map[string]semsim.NodeID{}
	resolve := func(name string) (semsim.NodeID, error) {
		if id, ok := minted[name]; ok {
			return id, nil
		}
		if id, ok := g.NodeByName(name); ok {
			return id, nil
		}
		return 0, fmt.Errorf("unknown node %q", name)
	}
	for _, op := range b.Ops {
		switch op.Op {
		case "add_node":
			minted[op.Name] = m.AddNode(op.Name, op.Label)
		case "add_edge", "remove_edge":
			u, err := resolve(op.From)
			if err != nil {
				return err
			}
			v, err := resolve(op.To)
			if err != nil {
				return err
			}
			if op.Op == "add_edge" {
				m.AddEdge(u, v, op.Label, op.Weight)
			} else {
				m.RemoveEdge(u, v, op.Label)
			}
		case "update_concept_freq":
			c, err := resolve(op.Concept)
			if err != nil {
				return err
			}
			m.UpdateConceptFreq(c, op.Freq)
		default:
			return fmt.Errorf("unknown op %q", op.Op)
		}
	}
	_, err := m.Commit()
	return err
}
