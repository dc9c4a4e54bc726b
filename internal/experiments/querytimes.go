package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"semsim/internal/datagen"
	"semsim/internal/hin"
	"semsim/internal/mc"
	"semsim/internal/simrank"
	"semsim/internal/walk"
)

// QueryTimesConfig sizes the Figure 4 experiment (average single-pair
// query time as a function of n_w and t) and the SLING rows quoted in the
// text (Section 5.2).
type QueryTimesConfig struct {
	// Items sizes the Amazon graph. Default 800.
	Items int
	// NumWalksSweep is the n_w axis of Figure 4(a) (t fixed at 15).
	NumWalksSweep []int
	// LengthSweep is the t axis of Figure 4(b) (n_w fixed at 150).
	LengthSweep []int
	// Queries is the number of random pairs timed per point. Default 200.
	Queries int
	// C and Theta are the decay factor and pruning threshold (paper 0.6,
	// 0.05).
	C     float64
	Theta float64
	// SLINGCutoff is the SO-cache storage threshold (paper 0.1).
	SLINGCutoff float64
	Seed        int64
}

func (c *QueryTimesConfig) fill() {
	if c.Items == 0 {
		c.Items = 800
	}
	if len(c.NumWalksSweep) == 0 {
		c.NumWalksSweep = []int{50, 100, 150, 200, 250}
	}
	if len(c.LengthSweep) == 0 {
		c.LengthSweep = []int{5, 10, 15, 20, 25}
	}
	if c.Queries == 0 {
		c.Queries = 200
	}
	if c.C == 0 {
		c.C = 0.6
	}
	if c.Theta == 0 {
		c.Theta = 0.05
	}
	if c.SLINGCutoff == 0 {
		c.SLINGCutoff = mc.DefaultSOCutoff
	}
}

// QueryTimesMethods lists the timed methods in report order.
var QueryTimesMethods = []string{"SimRank-MC", "SemSim-MC", "SemSim-MC+prune", "SemSim-MC+prune+SLING"}

// TimingRow is one x-axis point of Figure 4: average per-query times for
// each method.
type TimingRow struct {
	Param    int // n_w or t
	PerQuery map[string]time.Duration
}

// QueryTimesResult holds both panels plus SLING memory.
type QueryTimesResult struct {
	ByNumWalks []TimingRow
	ByLength   []TimingRow
	// SLINGMemoryBytes is the SO-cache size at the default point
	// (n_w = 150, t = 15).
	SLINGMemoryBytes int64
	SLINGEntries     int
}

// QueryTimes reproduces Figure 4 (and the SLING timing rows of §5.2).
func QueryTimes(cfg QueryTimesConfig) (*QueryTimesResult, error) {
	cfg.fill()
	d, err := datagen.Amazon(datagen.AmazonConfig{Items: cfg.Items, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	res := &QueryTimesResult{}

	measure := func(nw, t int, capture bool) (TimingRow, error) {
		ix, err := walk.Build(d.Graph, walk.Options{NumWalks: nw, Length: t, Seed: cfg.Seed + int64(nw*1000+t), Parallel: true})
		if err != nil {
			return TimingRow{}, err
		}
		srmc, err := simrank.NewMC(ix, cfg.C)
		if err != nil {
			return TimingRow{}, err
		}
		plain, err := mc.New(ix, d.Lin, mc.Options{C: cfg.C})
		if err != nil {
			return TimingRow{}, err
		}
		pruned, err := mc.New(ix, d.Lin, mc.Options{C: cfg.C, Theta: cfg.Theta})
		if err != nil {
			return TimingRow{}, err
		}
		cache := mc.NewSOCache(d.Graph, d.Lin, cfg.SLINGCutoff)
		sling, err := mc.New(ix, d.Lin, mc.Options{C: cfg.C, Theta: cfg.Theta, Cache: cache})
		if err != nil {
			return TimingRow{}, err
		}

		rng := rand.New(rand.NewSource(cfg.Seed + 99))
		n := d.Graph.NumNodes()
		pairs := make([][2]hin.NodeID, cfg.Queries)
		for i := range pairs {
			pairs[i] = [2]hin.NodeID{hin.NodeID(rng.Intn(n)), hin.NodeID(rng.Intn(n))}
		}
		row := TimingRow{PerQuery: make(map[string]time.Duration)}
		time1 := func(name string, q func(u, v hin.NodeID) float64) {
			// Warm up (fills the SLING cache, faults pages).
			for _, p := range pairs[:len(pairs)/4+1] {
				q(p[0], p[1])
			}
			start := time.Now()
			for _, p := range pairs {
				q(p[0], p[1])
			}
			row.PerQuery[name] = time.Since(start) / time.Duration(len(pairs))
		}
		semsim := func(e *mc.Estimator) func(u, v hin.NodeID) float64 {
			return func(u, v hin.NodeID) float64 { return e.QueryCost(u, v, nil) }
		}
		time1("SimRank-MC", srmc.Query)
		time1("SemSim-MC", semsim(plain))
		time1("SemSim-MC+prune", semsim(pruned))
		time1("SemSim-MC+prune+SLING", semsim(sling))
		if capture {
			res.SLINGMemoryBytes = cache.MemoryBytes()
			res.SLINGEntries = cache.Len()
		}
		return row, nil
	}

	for i, nw := range cfg.NumWalksSweep {
		row, err := measure(nw, 15, i == len(cfg.NumWalksSweep)-1)
		if err != nil {
			return nil, err
		}
		row.Param = nw
		res.ByNumWalks = append(res.ByNumWalks, row)
	}
	for _, t := range cfg.LengthSweep {
		row, err := measure(150, t, false)
		if err != nil {
			return nil, err
		}
		row.Param = t
		res.ByLength = append(res.ByLength, row)
	}
	return res, nil
}

// Render prints both panels.
func (r *QueryTimesResult) Render() string {
	panel := func(title, param string, rows []TimingRow) string {
		t := Table{Title: title, Header: append([]string{param}, QueryTimesMethods...)}
		for _, row := range rows {
			cells := []string{fmt.Sprintf("%d", row.Param)}
			for _, m := range QueryTimesMethods {
				cells = append(cells, fmt.Sprintf("%.4fms", float64(row.PerQuery[m].Nanoseconds())/1e6))
			}
			t.Rows = append(t.Rows, cells)
		}
		return t.Render()
	}
	out := panel("Figure 4(a): avg single-pair query time, t=15", "n_w", r.ByNumWalks) + "\n" +
		panel("Figure 4(b): avg single-pair query time, n_w=150", "t", r.ByLength)
	out += fmt.Sprintf("\nSLING SO-cache: %d entries, %.2f MB\n",
		r.SLINGEntries, float64(r.SLINGMemoryBytes)/(1<<20))
	return out
}
