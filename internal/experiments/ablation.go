package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"semsim/internal/core"
	"semsim/internal/datagen"
	"semsim/internal/eval"
	"semsim/internal/hin"
	"semsim/internal/mc"
	"semsim/internal/rank"
	"semsim/internal/semantic"
	"semsim/internal/walk"
)

// AblationConfig sizes the design-choice ablations DESIGN.md calls out:
// the ingredients of the SemSim definition (Section 2.2's discussion) and
// the pruning threshold trade-off (Section 4.4).
type AblationConfig struct {
	// Nouns sizes the WordNet graph for the definition ablation.
	// Default 600.
	Nouns int
	// Pairs is the benchmark size. Default 150.
	Pairs int
	// Items sizes the Amazon graph for the theta sweep. Default 400.
	Items int
	// Thetas is the pruning sweep. Default {0, 0.01, 0.05, 0.1, 0.2}.
	Thetas []float64
	// QueryPairs is how many pairs the theta sweep measures. Default 150.
	QueryPairs int
	C          float64
	Seed       int64
}

func (c *AblationConfig) fill() {
	if c.Nouns == 0 {
		c.Nouns = 600
	}
	if c.Pairs == 0 {
		c.Pairs = 150
	}
	if c.Items == 0 {
		c.Items = 400
	}
	if len(c.Thetas) == 0 {
		c.Thetas = []float64{0, 0.01, 0.05, 0.1, 0.2}
	}
	if c.QueryPairs == 0 {
		c.QueryPairs = 150
	}
	if c.C == 0 {
		c.C = 0.6
	}
}

// AblationVariantRow reports one SemSim-definition variant's relatedness
// correlation.
type AblationVariantRow struct {
	Variant string
	R       float64
}

// AblationThetaRow reports one pruning threshold's cost/error trade-off.
type AblationThetaRow struct {
	Theta    float64
	MeanAbs  float64       // mean |pruned - unpruned| over query pairs
	MaxAbs   float64       // max deviation (Prop 4.6 bounds it by theta)
	PerQuery time.Duration // average query time
	Zeroed   float64       // fraction of pairs pre-filtered to 0
}

// AblationTopKRow reports one graph size's per-query times for the three
// top-k strategies (all return identical rankings).
type AblationTopKRow struct {
	Items      int
	Brute      time.Duration // theta-prefiltered scan over all candidates
	SemBounded time.Duration // Prop 2.5 early termination
	MeetIndex  time.Duration // inverted-index collision enumeration
}

// AblationResult holds all three ablations.
type AblationResult struct {
	Variants []AblationVariantRow
	Thetas   []AblationThetaRow
	TopK     []AblationTopKRow
}

// Ablation runs the three design-choice studies:
//
//  1. Definition ingredients (on the WordNet relatedness benchmark):
//     full SemSim vs the same-label-restricted variant (Section 2.2's
//     rejected alternative), vs SemSim without edge weights, vs SemSim
//     without semantics (= weighted SimRank), vs plain SimRank.
//  2. Pruning threshold sweep (on Amazon): per-query time and deviation
//     from the unpruned estimate as theta grows (Prop 4.6: deviation
//     bounded by theta).
//  3. Top-k strategy comparison across graph sizes: brute scan vs
//     Prop 2.5 early termination vs inverted-index collisions.
func Ablation(cfg AblationConfig) (*AblationResult, error) {
	cfg.fill()
	res := &AblationResult{}

	// --- Definition ablation --------------------------------------
	wn, err := datagen.WordNet(datagen.WordNetConfig{Nouns: cfg.Nouns, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	bm, err := datagen.WordSim(wn, datagen.WordSimConfig{Pairs: cfg.Pairs, Seed: cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	// Unit-weight copy of the graph for the weight ablation.
	var unweighted *hin.Graph
	{
		b := hin.NewBuilder()
		for v := 0; v < wn.Graph.NumNodes(); v++ {
			b.AddNode(wn.Graph.NodeName(hin.NodeID(v)), wn.Graph.NodeLabel(hin.NodeID(v)))
		}
		wn.Graph.Edges(func(e hin.Edge) bool {
			b.AddEdge(e.From, e.To, e.Label, 1)
			return true
		})
		var err error
		unweighted, err = b.Build()
		if err != nil {
			return nil, err
		}
	}

	variants := []struct {
		name string
		g    *hin.Graph
		sem  semantic.Measure
		opts core.IterOptions
	}{
		{"SemSim (full)", wn.Graph, wn.Lin, core.IterOptions{C: cfg.C, MaxIterations: 10, Parallel: true}},
		{"SemSim same-label-only", wn.Graph, wn.Lin, core.IterOptions{C: cfg.C, MaxIterations: 10, Parallel: true, SameLabelOnly: true}},
		{"SemSim w/o edge weights", unweighted, wn.Lin, core.IterOptions{C: cfg.C, MaxIterations: 10, Parallel: true}},
		{"SemSim w/o semantics (weighted SimRank)", wn.Graph, semantic.Uniform{}, core.IterOptions{C: cfg.C, MaxIterations: 10, Parallel: true}},
		{"plain SimRank", unweighted, semantic.Uniform{}, core.IterOptions{C: cfg.C, MaxIterations: 10, Parallel: true}},
	}
	for _, v := range variants {
		it, err := core.Iterative(v.g, v.sem, v.opts)
		if err != nil {
			return nil, err
		}
		scores := make([]float64, len(bm.Pairs))
		for i, p := range bm.Pairs {
			scores[i] = it.Scores.At(p[0], p[1])
		}
		r, _, err := eval.PearsonP(scores, bm.Human)
		if err != nil {
			return nil, err
		}
		res.Variants = append(res.Variants, AblationVariantRow{Variant: v.name, R: r})
	}

	// --- Pruning threshold sweep -----------------------------------
	az, err := datagen.Amazon(datagen.AmazonConfig{Items: cfg.Items, Seed: cfg.Seed + 2})
	if err != nil {
		return nil, err
	}
	ix, err := walk.Build(az.Graph, walk.Options{NumWalks: 150, Length: 15, Seed: cfg.Seed + 3, Parallel: true})
	if err != nil {
		return nil, err
	}
	base, err := mc.New(ix, az.Lin, mc.Options{C: cfg.C, Cache: mc.NewSOCache(az.Graph, az.Lin, 0)})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 4))
	n := az.Graph.NumNodes()
	pairs := make([][2]hin.NodeID, cfg.QueryPairs)
	baseScores := make([]float64, cfg.QueryPairs)
	for i := range pairs {
		pairs[i] = [2]hin.NodeID{hin.NodeID(rng.Intn(n)), hin.NodeID(rng.Intn(n))}
		baseScores[i] = base.QueryCost(pairs[i][0], pairs[i][1], nil)
	}
	for _, theta := range cfg.Thetas {
		est, err := mc.New(ix, az.Lin, mc.Options{C: cfg.C, Theta: theta,
			Cache: mc.NewSOCache(az.Graph, az.Lin, 0)})
		if err != nil {
			return nil, err
		}
		row := AblationThetaRow{Theta: theta}
		start := time.Now()
		zeroed := 0
		for i, p := range pairs {
			s := est.QueryCost(p[0], p[1], nil)
			d := math.Abs(s - baseScores[i])
			row.MeanAbs += d
			if d > row.MaxAbs {
				row.MaxAbs = d
			}
			if s == 0 && baseScores[i] > 0 {
				zeroed++
			}
		}
		row.PerQuery = time.Since(start) / time.Duration(len(pairs))
		row.MeanAbs /= float64(len(pairs))
		row.Zeroed = float64(zeroed) / float64(len(pairs))
		res.Thetas = append(res.Thetas, row)
	}

	// --- Top-k strategy comparison ----------------------------------
	for _, items := range []int{cfg.Items / 2, cfg.Items, cfg.Items * 2} {
		row, err := ablateTopK(items, cfg)
		if err != nil {
			return nil, err
		}
		res.TopK = append(res.TopK, row)
	}
	return res, nil
}

// ablateTopK times the three top-10 strategies on one Amazon size,
// checking they agree on the returned scores.
func ablateTopK(items int, cfg AblationConfig) (AblationTopKRow, error) {
	d, err := datagen.Amazon(datagen.AmazonConfig{Items: items, Seed: cfg.Seed + 5})
	if err != nil {
		return AblationTopKRow{}, err
	}
	ix, err := walk.Build(d.Graph, walk.Options{NumWalks: 100, Length: 10, Seed: cfg.Seed + 6, Parallel: true})
	if err != nil {
		return AblationTopKRow{}, err
	}
	est, err := mc.New(ix, d.Lin, mc.Options{C: cfg.C, Theta: 0.05,
		Cache: mc.NewSOCache(d.Graph, d.Lin, 0)})
	if err != nil {
		return AblationTopKRow{}, err
	}
	meet := walk.BuildMeetIndex(ix)
	queries := make([]hin.NodeID, 20)
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	for i := range queries {
		queries[i] = hin.NodeID(rng.Intn(d.Graph.NumNodes()))
	}
	row := AblationTopKRow{Items: items}
	timeIt := func(f func(u hin.NodeID) float64) (time.Duration, float64) {
		start := time.Now()
		var checksum float64
		for _, u := range queries {
			checksum += f(u)
		}
		return time.Since(start) / time.Duration(len(queries)), checksum
	}
	sum := func(s []rank.Scored) float64 {
		var t float64
		for _, e := range s {
			t += e.Score
		}
		return t
	}
	var cb, cs, cm float64
	row.Brute, cb = timeIt(func(u hin.NodeID) float64 { return sum(est.TopKCost(u, 10, nil)) })
	row.SemBounded, cs = timeIt(func(u hin.NodeID) float64 { return sum(est.TopKSemBoundedCost(u, 10, nil)) })
	row.MeetIndex, cm = timeIt(func(u hin.NodeID) float64 { return sum(est.TopKWithIndexCost(u, 10, meet, nil)) })
	if math.Abs(cb-cs) > 1e-9 || math.Abs(cb-cm) > 1e-9 {
		return AblationTopKRow{}, fmt.Errorf("experiments: top-k strategies disagree: %v %v %v", cb, cs, cm)
	}
	return row, nil
}

// Find returns a variant row by name.
func (r *AblationResult) Find(name string) (AblationVariantRow, bool) {
	for _, v := range r.Variants {
		if v.Variant == name {
			return v, true
		}
	}
	return AblationVariantRow{}, false
}

// Render prints both ablation tables.
func (r *AblationResult) Render() string {
	t1 := Table{
		Title:  "Ablation A: SemSim definition ingredients (WordNet relatedness, Pearson r)",
		Header: []string{"variant", "r"},
	}
	for _, v := range r.Variants {
		t1.Rows = append(t1.Rows, []string{v.Variant, f3(v.R)})
	}
	t2 := Table{
		Title:  "Ablation B: pruning threshold sweep (Amazon, vs unpruned estimate)",
		Header: []string{"theta", "mean |dev|", "max |dev|", "zeroed", "per query"},
	}
	for _, row := range r.Thetas {
		t2.Rows = append(t2.Rows, []string{
			fmt.Sprintf("%.2f", row.Theta), f4(row.MeanAbs), f4(row.MaxAbs),
			f3(row.Zeroed), row.PerQuery.Round(time.Microsecond).String(),
		})
	}
	t3 := Table{
		Title:  "Ablation C: top-10 search strategy (Amazon, per query)",
		Header: []string{"items", "brute scan", "sem-bounded (Prop 2.5)", "meet-index"},
	}
	for _, row := range r.TopK {
		t3.Rows = append(t3.Rows, []string{
			fmt.Sprintf("%d", row.Items),
			row.Brute.Round(time.Microsecond).String(),
			row.SemBounded.Round(time.Microsecond).String(),
			row.MeetIndex.Round(time.Microsecond).String(),
		})
	}
	return t1.Render() + "\n" + t2.Render() + "\n" + t3.Render()
}
