package experiments

import (
	"math/rand"

	"semsim/internal/core"
	"semsim/internal/datagen"
	"semsim/internal/eval"
	"semsim/internal/hin"
	"semsim/internal/mc"
	"semsim/internal/simrank"
	"semsim/internal/walk"
)

// AccuracyConfig sizes the Table 4 experiment (approximation accuracy vs
// the iterative ground truth).
type AccuracyConfig struct {
	// Authors / Items size the AMiner / Amazon graphs. Defaults 300.
	Authors int
	Items   int
	// Pairs is how many random node pairs are evaluated (paper: 1K) and
	// Runs how often the walk index is rebuilt (paper: 100). Defaults
	// 200 and 20.
	Pairs int
	Runs  int
	// NumWalks / Length are the index parameters (paper 150 / 15).
	NumWalks int
	Length   int
	// C and Theta as in the paper (0.6, 0.05).
	C     float64
	Theta float64
	Seed  int64
}

func (c *AccuracyConfig) fill() {
	if c.Authors == 0 {
		c.Authors = 300
	}
	if c.Items == 0 {
		c.Items = 300
	}
	if c.Pairs == 0 {
		c.Pairs = 200
	}
	if c.Runs == 0 {
		c.Runs = 20
	}
	if c.NumWalks == 0 {
		c.NumWalks = walk.DefaultNumWalks
	}
	if c.Length == 0 {
		c.Length = walk.DefaultLength
	}
	if c.C == 0 {
		c.C = 0.6
	}
	if c.Theta == 0 {
		c.Theta = 0.05
	}
}

// AccuracyMethods lists the Table 4 columns in order.
var AccuracyMethods = []string{"SemSim+prune", "SemSim", "SimRank"}

// AccuracyResult holds Table 4: per dataset, per method, the accuracy
// statistics of the estimator against its iterative ground truth.
type AccuracyResult struct {
	Datasets []string
	Stats    []map[string]eval.AccuracyStats // parallel to Datasets
}

// Accuracy reproduces Table 4.
func Accuracy(cfg AccuracyConfig) (*AccuracyResult, error) {
	cfg.fill()
	am, err := datagen.AMiner(datagen.AMinerConfig{Authors: cfg.Authors, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	az, err := datagen.Amazon(datagen.AmazonConfig{Items: cfg.Items, Seed: cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	res := &AccuracyResult{}
	for _, d := range []*datagen.Dataset{am, az} {
		// Ground truths from the iterative forms.
		ssExact, err := core.Iterative(d.Graph, d.Lin, core.IterOptions{C: cfg.C, MaxIterations: 12, Parallel: true})
		if err != nil {
			return nil, err
		}
		srExact, err := simrank.Iterative(d.Graph, simrank.IterOptions{C: cfg.C, MaxIterations: 12})
		if err != nil {
			return nil, err
		}

		// Random pairs.
		rng := rand.New(rand.NewSource(cfg.Seed + 17))
		n := d.Graph.NumNodes()
		pairs := make([][2]hin.NodeID, cfg.Pairs)
		for i := range pairs {
			u := hin.NodeID(rng.Intn(n))
			v := hin.NodeID(rng.Intn(n))
			if u == v {
				v = hin.NodeID((int(v) + 1) % n)
			}
			pairs[i] = [2]hin.NodeID{u, v}
		}

		estimates := map[string][][]float64{}
		for _, m := range AccuracyMethods {
			estimates[m] = make([][]float64, cfg.Pairs)
		}
		for run := 0; run < cfg.Runs; run++ {
			ix, err := walk.Build(d.Graph, walk.Options{
				NumWalks: cfg.NumWalks, Length: cfg.Length,
				Seed: cfg.Seed + int64(1000+run), Parallel: true,
			})
			if err != nil {
				return nil, err
			}
			pruned, err := mc.New(ix, d.Lin, mc.Options{C: cfg.C, Theta: cfg.Theta,
				Cache: mc.NewSOCache(d.Graph, d.Lin, 0)})
			if err != nil {
				return nil, err
			}
			plain, err := mc.New(ix, d.Lin, mc.Options{C: cfg.C,
				Cache: mc.NewSOCache(d.Graph, d.Lin, 0)})
			if err != nil {
				return nil, err
			}
			srmc, err := simrank.NewMC(ix, cfg.C)
			if err != nil {
				return nil, err
			}
			for i, p := range pairs {
				estimates["SemSim+prune"][i] = append(estimates["SemSim+prune"][i], pruned.QueryCost(p[0], p[1], nil))
				estimates["SemSim"][i] = append(estimates["SemSim"][i], plain.QueryCost(p[0], p[1], nil))
				estimates["SimRank"][i] = append(estimates["SimRank"][i], srmc.Query(p[0], p[1]))
			}
		}

		truthSS := make([]float64, cfg.Pairs)
		truthSR := make([]float64, cfg.Pairs)
		for i, p := range pairs {
			truthSS[i] = ssExact.Scores.At(p[0], p[1])
			truthSR[i] = srExact.Scores.At(p[0], p[1])
		}
		stats := map[string]eval.AccuracyStats{}
		for _, m := range AccuracyMethods {
			truth := truthSS
			if m == "SimRank" {
				truth = truthSR
			}
			st, err := eval.Accuracy(estimates[m], truth)
			if err != nil {
				return nil, err
			}
			stats[m] = st
		}
		res.Datasets = append(res.Datasets, d.Name)
		res.Stats = append(res.Stats, stats)
	}
	return res, nil
}

// Render prints Table 4.
func (r *AccuracyResult) Render() string {
	t := Table{
		Title:  "Table 4: accuracy of approximation",
		Header: []string{"dataset", "metric", "SemSim+prune", "SemSim", "SimRank"},
	}
	metrics := []struct {
		name string
		get  func(eval.AccuracyStats) float64
	}{
		{"Pearson's r", func(s eval.AccuracyStats) float64 { return s.PearsonR }},
		{"Mean var", func(s eval.AccuracyStats) float64 { return s.MeanVar }},
		{"Max var", func(s eval.AccuracyStats) float64 { return s.MaxVar }},
		{"Mean rel. err", func(s eval.AccuracyStats) float64 { return s.MeanRelErr }},
		{"Max rel. err", func(s eval.AccuracyStats) float64 { return s.MaxRelErr }},
		{"Mean abs. err", func(s eval.AccuracyStats) float64 { return s.MeanAbsErr }},
		{"Max abs. err", func(s eval.AccuracyStats) float64 { return s.MaxAbsErr }},
	}
	for di, ds := range r.Datasets {
		for _, m := range metrics {
			row := []string{ds, m.name}
			for _, method := range AccuracyMethods {
				row = append(row, f4(m.get(r.Stats[di][method])))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t.Render()
}
