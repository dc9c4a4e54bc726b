package main

import (
	"encoding/json"
	"fmt"
	"os"

	"semsim"
	"semsim/servebench/bench"
)

// loadGraph reads the benchmark graph.
func loadGraph(path string) (*semsim.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := semsim.ReadGraph(f)
	if err != nil {
		return nil, fmt.Errorf("read graph: %w", err)
	}
	return g, nil
}

// checker compares server answers with an in-process index built from
// the same graph, options and seed.
type checker struct {
	idx *semsim.Index
}

func newChecker(g *semsim.Graph) (*checker, error) {
	tax, err := semsim.BuildTaxonomy(g, semsim.TaxonomyOptions{})
	if err != nil {
		return nil, err
	}
	idx, err := semsim.BuildIndex(g, semsim.NewLin(tax), bench.ServeOptions())
	if err != nil {
		return nil, err
	}
	return &checker{idx: idx}, nil
}

func (c *checker) close() { c.idx.Close() }

// check returns an error describing the first difference between a
// response body and the in-process answer, or nil when they are
// bit-identical.
func (c *checker) check(rd bench.Read, body []byte) error {
	g := c.idx.Graph()
	u, ok := g.NodeByName(rd.U)
	if !ok {
		return fmt.Errorf("unknown node %s", rd.U)
	}
	switch rd.Endpoint {
	case "/query", "/explain":
		v, ok := g.NodeByName(rd.V)
		if !ok {
			return fmt.Errorf("unknown node %s", rd.V)
		}
		var resp struct {
			Sem     float64 `json:"sem"`
			SemSim  float64 `json:"semsim"`
			SimRank float64 `json:"simrank"`
			Score   float64 `json:"score"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("%s: %w", rd.Path(), err)
		}
		want := c.idx.Query(u, v)
		if rd.Endpoint == "/explain" {
			if resp.Score != want {
				return fmt.Errorf("%s: score %v, in-process Query %v", rd.Path(), resp.Score, want)
			}
			return nil
		}
		if resp.SemSim != want {
			return fmt.Errorf("%s: semsim %v, in-process %v", rd.Path(), resp.SemSim, want)
		}
		if sr := c.idx.SimRankQuery(u, v); resp.SimRank != sr {
			return fmt.Errorf("%s: simrank %v, in-process %v", rd.Path(), resp.SimRank, sr)
		}
		if sem := c.idx.Sem().Sim(u, v); resp.Sem != sem {
			return fmt.Errorf("%s: sem %v, in-process %v", rd.Path(), resp.Sem, sem)
		}
		return nil
	case "/topk":
		var resp struct {
			Results []struct {
				Node  string  `json:"node"`
				Score float64 `json:"score"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("%s: %w", rd.Path(), err)
		}
		want := c.idx.TopK(u, bench.TopKSize)
		if len(resp.Results) != len(want) {
			return fmt.Errorf("%s: %d results, in-process %d", rd.Path(), len(resp.Results), len(want))
		}
		for i, w := range want {
			got := resp.Results[i]
			if got.Node != g.NodeName(w.Node) || got.Score != w.Score {
				return fmt.Errorf("%s: result %d is %s %v, in-process %s %v",
					rd.Path(), i, got.Node, got.Score, g.NodeName(w.Node), w.Score)
			}
		}
		return nil
	}
	return fmt.Errorf("no check for %s", rd.Endpoint)
}
