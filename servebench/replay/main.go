// Command replay is the traced half of the serving benchmark. It
// rebuilds the serving stack in-process from each layer's exported
// constructors, replays the run's request and batch sequence through it
// and the semsim facade, records a span around every call into a layer,
// and prints the per-layer timings as one JSON object on its last line.
// The spans are written once, at exit, to -spans.
//
//	replay -graph g.hin -workload topk -seed 3 -seconds 15 -spans spans.ndjson
//
// servebench runs it after a traced run's server has stopped.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"semsim"
	"semsim/internal/engine"
	"semsim/internal/hin"
	"semsim/internal/mc"
	"semsim/internal/semantic"
	"semsim/internal/taxonomy"
	"semsim/internal/walk"
	"semsim/servebench/bench"
)

// serve holds the index parameters of `semsim serve` at its defaults.
var serve = bench.ServeOptions()

// seedStride is the facade's per-epoch walk-resampling seed stride
// (mutate.go), so replayed commits resample the walks a served commit
// would.
const seedStride = int64(-0x61C8864680B583EB)

// Replay sizes: enough calls for steady means, few enough that a traced
// run stays within its time budget.
const (
	pairSetSize  = 5000
	simCalls     = 200000
	strategySrcs = 40
)

func main() {
	var (
		graphPath = flag.String("graph", "", "benchmark graph (hin text format)")
		workload  = flag.String("workload", "", "pair or topk")
		seed      = flag.Int64("seed", 1, "workload seed")
		seconds   = flag.Int("seconds", 20, "run length the sequence was sized for")
		spansPath = flag.String("spans", "", "write the spans here as JSON lines")
	)
	flag.Parse()
	out, err := run(*graphPath, *workload, *seed, *seconds, *spansPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// stack is one epoch of the serving stack, built layer by layer the way
// the facade assembles a snapshot.
type stack struct {
	g      *hin.Graph
	base   semantic.Measure // raw Lin measure over the epoch's taxonomy
	kernel *semantic.Kernel
	walks  *walk.Index
	cache  *mc.SOCache
	est    *mc.Estimator
	meet   *walk.MeetIndex
	eng    engine.Backend
}

func engineConfig(s *stack, planner *engine.Planner) engine.Config {
	return engine.Config{
		Graph: s.g, Sem: s.kernel, C: serve.C, Theta: serve.Theta,
		Estimator: s.est, Walks: s.walks, Meet: s.meet, Cache: s.cache,
		Planner: planner,
	}
}

// newPlanner mirrors the facade's AutoPlan wiring.
func newPlanner(s *stack) *engine.Planner {
	st := engine.CollectStats(s.g, s.walks, s.meet)
	st.DenseSemKernel = s.kernel.DenseMode()
	return engine.NewPlanner(st, nil)
}

type replayer struct {
	tr   *bench.Tracer
	root int32
}

// span times fn as a span named name under parent.
func (r *replayer) span(name string, parent int32, fn func() error) error {
	id := r.tr.Start(name, parent)
	err := fn()
	r.tr.End(id)
	return err
}

func run(graphPath, workload string, seed int64, seconds int, spansPath string) (map[string]float64, error) {
	phases, err := bench.PlanPhases(workload, seconds)
	if err != nil {
		return nil, err
	}
	if graphPath == "" {
		return nil, errors.New("missing -graph")
	}
	r := &replayer{tr: bench.NewTracer()}
	r.root = r.tr.Start("replay", 0)

	s, err := r.startup(graphPath)
	if err != nil {
		return nil, err
	}

	// The facade index the handlers call, built as serve builds it.
	tax, err := semsim.BuildTaxonomy(s.g, semsim.TaxonomyOptions{})
	if err != nil {
		return nil, err
	}
	opts := serve
	opts.ShadowRate = bench.ServeShadowRate
	idx, err := semsim.BuildIndex(s.g, semsim.NewLin(tax), opts)
	if err != nil {
		return nil, err
	}
	defer idx.Close()

	warm, reads := readSequence(workload, seed, phases)
	if err := r.replayReads(idx, warm, 0); err != nil {
		return nil, err
	}
	if err := r.replayReads(idx, reads, timeEvery(workload)); err != nil {
		return nil, err
	}
	pairs := pairSet(seed)
	r.replayPairs(idx, s, pairs)
	sources := strategySources(reads, pairs)
	picked, err := r.replayStrategies(idx, s, sources)
	if err != nil {
		return nil, err
	}
	// At least three commits, so the per-commit layer timings of the
	// read-only workloads (one served commit) are not a single sample.
	nb := max(phases.ProbeBatches, 3)
	bs := bench.NewBatches(seed, bench.Categories(s.g))
	var resampled int
	for j := 0; j < nb; j++ {
		b := bs.Next()
		if err := r.span("semsim.Commit", r.root, func() error { return bench.Apply(idx, b) }); err != nil {
			return nil, fmt.Errorf("facade commit %d: %w", j, err)
		}
		next, n, err := r.commitLayers(s, b, uint64(j+1))
		if err != nil {
			return nil, fmt.Errorf("layer commit %d: %w", j, err)
		}
		s, resampled = next, resampled+n
	}
	r.tr.End(r.root)

	if spansPath != "" {
		f, err := os.Create(spansPath)
		if err != nil {
			return nil, err
		}
		if err := r.tr.Write(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return metrics(r.tr.Spans(), picked, resampled, nb), nil
}

// startup builds epoch 0 layer by layer: parse, taxonomy, walks, kernel,
// SO cache, estimator, meet index, engine and the exact shadow reference.
func (r *replayer) startup(graphPath string) (*stack, error) {
	s := &stack{}
	p := r.tr.Start("startup", r.root)
	defer r.tr.End(p)
	err := r.span("hin.Read", p, func() error {
		f, err := os.Open(graphPath)
		if err != nil {
			return err
		}
		defer f.Close()
		s.g, err = hin.Read(f)
		return err
	})
	if err != nil {
		return nil, err
	}
	var tax *taxonomy.Taxonomy
	if err := r.span("taxonomy.FromGraph", p, func() (err error) {
		tax, err = taxonomy.FromGraph(s.g, taxonomy.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	s.base = semantic.Lin{Tax: tax}
	if err := r.span("walk.Build", p, func() (err error) {
		s.walks, err = walk.Build(s.g, walk.Options{NumWalks: serve.NumWalks, Length: serve.WalkLength, Seed: serve.Seed, Parallel: true})
		return err
	}); err != nil {
		return nil, err
	}
	if err := r.span("semantic.NewKernel", p, func() (err error) {
		s.kernel, err = semantic.NewKernel(s.base, s.g.NumNodes(), semantic.KernelOptions{})
		return err
	}); err != nil {
		return nil, err
	}
	r.span("mc.NewSOCache", p, func() error {
		s.cache = mc.NewSOCache(s.g, s.kernel, serve.SLINGCutoff)
		return nil
	})
	if err := r.span("mc.New", p, func() (err error) {
		s.est, err = mc.New(s.walks, s.kernel, mc.Options{C: serve.C, Theta: serve.Theta, Cache: s.cache})
		return err
	}); err != nil {
		return nil, err
	}
	r.span("walk.BuildMeetIndex", p, func() error {
		s.meet = walk.BuildMeetIndex(s.walks)
		return nil
	})
	if err := r.span("engine.New/mc", p, func() (err error) {
		s.eng, err = engine.New("mc", engineConfig(s, newPlanner(s)))
		return err
	}); err != nil {
		return nil, err
	}
	err = r.span("engine.New/exact", p, func() error {
		_, err := engine.New("exact", engineConfig(s, nil))
		return err
	})
	return s, err
}

// readSequence regenerates the run's warm-up and measured reads.
func readSequence(workload string, seed int64, ph bench.Phases) (warm, meas []bench.Read) {
	rs := bench.NewReads(workload, seed)
	warm = make([]bench.Read, ph.WarmReads)
	for i := range warm {
		warm[i] = rs.Next()
	}
	meas = make([]bench.Read, ph.MeasReads)
	for i := range meas {
		meas[i] = rs.Next()
	}
	return warm, meas
}

// timeEvery is which measured reads the replay times: every 16th pair
// read and every 4th top-k read, spread over the whole measured phase so
// the timed reads meet the caches in the states the served ones did.
func timeEvery(workload string) int {
	if workload == bench.TopK {
		return 4
	}
	return 16
}

// pairSet is a fixed set of uniform pairs every workload scores, so the
// single-pair layers are measured whatever the workload's mix.
func pairSet(seed int64) [][2]string {
	rs := bench.NewReads(bench.Pair, seed^0x7061697273)
	out := make([][2]string, pairSetSize)
	for i := range out {
		rd := rs.Next()
		out[i] = [2]string{rd.U, rd.V}
	}
	return out
}

func strategySources(reads []bench.Read, pairs [][2]string) []string {
	var out []string
	for _, rd := range reads {
		if rd.Endpoint == "/topk" && len(out) < strategySrcs {
			out = append(out, rd.U)
		}
	}
	for i := 0; len(out) < strategySrcs && i < len(pairs); i++ {
		out = append(out, pairs[i][0])
	}
	return out
}

func node(g *semsim.Graph, name string) (semsim.NodeID, error) {
	id, ok := g.NodeByName(name)
	if !ok {
		return 0, fmt.Errorf("unknown node %s", name)
	}
	return id, nil
}

// encodeJSON is the serve handlers' response encoding.
func encodeJSON(v any) {
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// replayReads sends reads through the facade calls each handler makes,
// plus the handler's response encoding, and times every every-th read
// (none when every is 0).
func (r *replayer) replayReads(idx *semsim.Index, reads []bench.Read, every int) error {
	var on *bench.Tracer
	if every > 0 {
		on = r.tr
	}
	p := on.Start("reads", r.root)
	defer on.End(p)
	g := idx.Graph()
	type hit struct {
		Node  string  `json:"node"`
		Score float64 `json:"score"`
	}
	for i, rd := range reads {
		var tr *bench.Tracer
		if every > 0 && i%every == 0 {
			tr = on
		}
		u, err := node(g, rd.U)
		if err != nil {
			return err
		}
		var v semsim.NodeID
		if rd.V != "" {
			if v, err = node(g, rd.V); err != nil {
				return err
			}
		}
		sp := tr.Start("read"+rd.Endpoint, p)
		var cost semsim.Cost
		switch rd.Endpoint {
		case "/query":
			var score, sem, sr float64
			id := tr.Start("semsim.QueryCost", sp)
			score = idx.QueryCost(u, v, &cost)
			tr.End(id)
			id = tr.Start("semsim.Sem.Sim", sp)
			sem = idx.Sem().Sim(u, v)
			tr.End(id)
			id = tr.Start("semsim.SimRankQuery", sp)
			sr = idx.SimRankQuery(u, v)
			tr.End(id)
			id = tr.Start("serve.encode", sp)
			encodeJSON(map[string]any{"u": rd.U, "v": rd.V, "sem": sem, "semsim": score, "simrank": sr, "cost": &cost})
			tr.End(id)
		case "/explain":
			id := tr.Start("semsim.ExplainQuery", sp)
			ex, err := idx.ExplainQuery(u, v)
			tr.End(id)
			if err != nil {
				return err
			}
			id = tr.Start("serve.encode", sp)
			encodeJSON(ex)
			tr.End(id)
		case "/topk":
			id := tr.Start("semsim.TopKCost", sp)
			res := idx.TopKCost(u, bench.TopKSize, &cost)
			idx.PlanStrategy(bench.TopKSize)
			tr.End(id)
			hits := make([]hit, 0, len(res))
			for _, s := range res {
				hits = append(hits, hit{g.NodeName(s.Node), s.Score})
			}
			id = tr.Start("serve.encode", sp)
			encodeJSON(map[string]any{"u": rd.U, "k": bench.TopKSize, "results": hits, "cost": &cost})
			tr.End(id)
		}
		tr.End(sp)
	}
	return nil
}

// replayPairs scores the fixed pair set through the facade's single-pair
// calls, the bare estimator and the semantic kernel.
func (r *replayer) replayPairs(idx *semsim.Index, s *stack, pairs [][2]string) {
	p := r.tr.Start("pairs", r.root)
	defer r.tr.End(p)
	g := idx.Graph()
	ids := make([][2]semsim.NodeID, 0, len(pairs))
	for _, pr := range pairs {
		u, _ := g.NodeByName(pr[0])
		v, _ := g.NodeByName(pr[1])
		ids = append(ids, [2]semsim.NodeID{u, v})
	}
	var cost semsim.Cost
	for _, pr := range ids {
		id := r.tr.Start("semsim.QueryCost", p)
		idx.QueryCost(pr[0], pr[1], &cost)
		r.tr.End(id)
		id = r.tr.Start("semsim.SimRankQuery", p)
		idx.SimRankQuery(pr[0], pr[1])
		r.tr.End(id)
		id = r.tr.Start("semsim.ExplainQuery", p)
		idx.ExplainQuery(pr[0], pr[1])
		r.tr.End(id)
		id = r.tr.Start("mc.QueryCost", p)
		s.est.QueryCost(pr[0], pr[1], &cost)
		r.tr.End(id)
	}
	// One kernel probe is a few ns: time a batch of them as one span.
	id := r.tr.Start("semantic.Kernel.Sim*200000", p)
	var sink float64
	for i := 0; i < simCalls; i++ {
		pr := ids[i%len(ids)]
		sink += s.kernel.Sim(pr[0], pr[1])
	}
	r.tr.End(id)
	if sink < 0 {
		fmt.Fprintln(os.Stderr, sink)
	}
}

// replayStrategies runs top-k on the same sources through the facade
// (planner-routed) and through each strategy forced on the engine. It
// returns the strategy the planner picks.
func (r *replayer) replayStrategies(idx *semsim.Index, s *stack, sources []string) (string, error) {
	p := r.tr.Start("strategies", r.root)
	defer r.tr.End(p)
	sr, ok := s.eng.(engine.StrategyRunner)
	if !ok {
		return "", errors.New("mc backend cannot force a top-k strategy")
	}
	g := idx.Graph()
	for _, name := range sources {
		u, err := node(g, name)
		if err != nil {
			return "", err
		}
		// One untimed call on each stack first: the strategies share the
		// engine's SO cache, so otherwise whichever ran first would pay the
		// misses for the others.
		var cost semsim.Cost
		idx.TopKCost(u, bench.TopKSize, &cost)
		if _, err := sr.TopKWithStrategy(u, bench.TopKSize, engine.StrategyBrute); err != nil {
			return "", err
		}
		id := r.tr.Start("semsim.TopKCost", p)
		idx.TopKCost(u, bench.TopKSize, &cost)
		r.tr.End(id)
		for _, st := range []engine.Strategy{engine.StrategyBrute, engine.StrategySemBounded, engine.StrategyCollision} {
			id := r.tr.Start("engine.TopK/"+st.String(), p)
			_, err := sr.TopKWithStrategy(u, bench.TopKSize, st)
			r.tr.End(id)
			if err != nil {
				return "", err
			}
		}
	}
	return idx.PlanStrategy(bench.TopKSize), nil
}

// commitLayers applies a batch layer by layer, in the order
// Mutator.Commit repairs them, and returns the successor epoch and the
// number of walks resampled.
func (r *replayer) commitLayers(cur *stack, b bench.Batch, epoch uint64) (*stack, int, error) {
	p := r.tr.Start("commit", r.root)
	defer r.tr.End(p)
	next := &stack{}
	var changed []hin.NodeID
	var newNames []string
	ic := map[int32]float64{}
	err := r.span("hin.rebuild", p, func() (err error) {
		next.g, newNames, err = rebuildGraph(cur.g, b, ic)
		if err != nil {
			return err
		}
		changed, err = hin.ChangedInNeighborhoodsGrown(cur.g, next.g)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	n2 := next.g.NumNodes()
	var rst *walk.RefreshStats
	if err := r.span("walk.Refresh", p, func() (err error) {
		next.walks, rst, err = cur.walks.Refresh(next.g, changed, serve.Seed+int64(epoch)*seedStride)
		return err
	}); err != nil {
		return nil, 0, err
	}
	err = r.span("semantic.Kernel.Refresh", p, func() error {
		tax, ok := semantic.TaxonomyOf(cur.base)
		if !ok {
			return errors.New("measure is not taxonomy-backed")
		}
		if len(newNames) > 0 {
			tax = tax.Grow(len(newNames))
		}
		if len(ic) > 0 {
			tax = tax.WithIC(ic)
		}
		next.base, _ = semantic.RebindTaxonomy(cur.base, tax)
		affected := make([]bool, n2)
		for x := range ic {
			for v := 0; v < n2; v++ {
				if tax.IsAncestor(x, int32(v)) {
					affected[v] = true
				}
			}
		}
		var err error
		next.kernel, err = cur.kernel.Refresh(next.base, n2, affected, semantic.KernelOptions{})
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	// An IC update reaches every stored normalization, so the SO cache
	// starts over; edge and node edits migrate it.
	if len(ic) > 0 {
		r.span("mc.NewSOCache", p, func() error {
			next.cache = mc.NewSOCache(next.g, next.kernel, serve.SLINGCutoff)
			return nil
		})
	} else {
		r.span("mc.SOCache.Migrate", p, func() error {
			changedBool := make([]bool, n2)
			for _, v := range changed {
				changedBool[v] = true
			}
			next.cache = cur.cache.Migrate(next.g, next.kernel, changedBool, 0)
			return nil
		})
	}
	if err := r.span("mc.New", p, func() (err error) {
		next.est, err = mc.New(next.walks, next.kernel, mc.Options{C: serve.C, Theta: serve.Theta, Cache: next.cache})
		return err
	}); err != nil {
		return nil, 0, err
	}
	if err := r.span("walk.MeetIndex.Repair", p, func() (err error) {
		next.meet, err = cur.meet.Repair(next.walks, rst.Touched)
		return err
	}); err != nil {
		return nil, 0, err
	}
	if err := r.span("engine.New/mc", p, func() (err error) {
		next.eng, err = engine.New("mc", engineConfig(next, newPlanner(next)))
		return err
	}); err != nil {
		return nil, 0, err
	}
	err = r.span("engine.New/exact", p, func() error {
		_, err := engine.New("exact", engineConfig(next, nil))
		return err
	})
	return next, rst.Resampled, err
}

// rebuildGraph materializes a batch's successor graph as the facade
// does: old nodes in id order, new nodes appended, old edges minus the
// removed ones, new edges appended. IC updates are collected into ic.
func rebuildGraph(g *hin.Graph, batch bench.Batch, ic map[int32]float64) (*hin.Graph, []string, error) {
	b := hin.NewBuilder()
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		b.AddNode(g.NodeName(hin.NodeID(v)), g.NodeLabel(hin.NodeID(v)))
	}
	minted := map[string]hin.NodeID{}
	var names []string
	for _, op := range batch.Ops {
		if op.Op == "add_node" {
			minted[op.Name] = b.AddNode(op.Name, op.Label)
			names = append(names, op.Name)
		}
	}
	resolve := func(name string) (hin.NodeID, error) {
		if id, ok := minted[name]; ok {
			return id, nil
		}
		if id, ok := g.NodeByName(name); ok {
			return id, nil
		}
		return 0, fmt.Errorf("unknown node %q", name)
	}
	drop := map[hin.EdgeKey]bool{}
	var add []hin.Edge
	for _, op := range batch.Ops {
		switch op.Op {
		case "add_edge", "remove_edge":
			u, err := resolve(op.From)
			if err != nil {
				return nil, nil, err
			}
			v, err := resolve(op.To)
			if err != nil {
				return nil, nil, err
			}
			if op.Op == "add_edge" {
				add = append(add, hin.Edge{From: u, To: v, Label: op.Label, Weight: op.Weight})
			} else {
				drop[hin.EdgeKey{From: u, To: v, Label: op.Label}] = true
			}
		case "update_concept_freq":
			c, err := resolve(op.Concept)
			if err != nil {
				return nil, nil, err
			}
			ic[int32(c)] = op.Freq
		}
	}
	g.Edges(func(e hin.Edge) bool {
		if !drop[hin.EdgeKey{From: e.From, To: e.To, Label: e.Label}] {
			b.AddEdge(e.From, e.To, e.Label, e.Weight)
		}
		return true
	})
	for _, e := range add {
		b.AddEdge(e.From, e.To, e.Label, e.Weight)
	}
	ng, err := b.Build()
	return ng, names, err
}

// metrics turns the spans into the per-layer metrics the replay owns.
// facade_us_per_read is the facade time of one replayed read, which the
// harness subtracts from the server's handler time.
func metrics(spans []bench.Span, picked string, resampled, commits int) map[string]float64 {
	startup := bench.Aggregate(spans, "startup")
	commit := bench.Aggregate(spans, "commit")
	pairs := bench.Aggregate(spans, "pairs")
	strat := bench.Aggregate(spans, "strategies")
	root := bench.Aggregate(spans, "replay")
	reads := bench.Aggregate(spans, "reads")
	all := bench.Aggregate(spans, "")

	var readN int
	var facadeNS int64
	for _, ep := range []string{"/query", "/explain", "/topk"} {
		st := reads["read"+ep]
		readN += st.Count
		facadeNS += st.TotalNS - st.SelfNS
	}
	facadeNS -= all["serve.encode"].TotalNS

	brute := strat["engine.TopK/brute"].MeanNS()
	semb := strat["engine.TopK/sem-bounded"].MeanNS()
	coll := strat["engine.TopK/collision"].MeanNS()
	chosen := map[string]float64{"brute": brute, "sem-bounded": semb, "collision": coll}[picked]

	return map[string]float64{
		"facade_us_per_read":         bench.Ratio(float64(facadeNS), float64(readN)) / 1e3,
		"serve.encode_us":            bench.Ratio(float64(all["serve.encode"].TotalNS), float64(readN)) / 1e3,
		"semsim.query_us":            pairs["semsim.QueryCost"].MeanNS() / 1e3,
		"semsim.simrank_us":          pairs["semsim.SimRankQuery"].MeanNS() / 1e3,
		"semsim.explain_us":          pairs["semsim.ExplainQuery"].MeanNS() / 1e3,
		"semsim.commit_ms":           root["semsim.Commit"].MeanNS() / 1e6,
		"engine.topk_ms":             strat["semsim.TopKCost"].MeanNS() / 1e6,
		"engine.topk_brute_ms":       brute / 1e6,
		"engine.topk_sem_bounded_ms": semb / 1e6,
		"engine.topk_collision_ms":   coll / 1e6,
		"engine.plan_regret":         bench.Ratio(chosen, min(brute, semb, coll)),
		"engine.shadow_build_s":      startup["engine.New/exact"].MeanNS() / 1e9,
		"engine.shadow_build_ms":     commit["engine.New/exact"].MeanNS() / 1e6,
		"mc.query_us":                pairs["mc.QueryCost"].MeanNS() / 1e3,
		"mc.so_migrate_ms":           commit["mc.SOCache.Migrate"].MeanNS() / 1e6,
		"semantic.kernel_build_s":    startup["semantic.NewKernel"].MeanNS() / 1e9,
		"semantic.kernel_refresh_ms": commit["semantic.Kernel.Refresh"].MeanNS() / 1e6,
		"semantic.sim_ns":            float64(pairs["semantic.Kernel.Sim*200000"].TotalNS) / simCalls,
		"walk.build_s":               startup["walk.Build"].MeanNS() / 1e9,
		"walk.meet_build_s":          startup["walk.BuildMeetIndex"].MeanNS() / 1e9,
		"walk.refresh_ms":            commit["walk.Refresh"].MeanNS() / 1e6,
		"walk.meet_repair_ms":        commit["walk.MeetIndex.Repair"].MeanNS() / 1e6,
		"walk.resampled_per_commit":  bench.Ratio(float64(resampled), float64(commits)),
		"hin.read_s":                 startup["hin.Read"].MeanNS() / 1e9,
		"taxonomy.build_s":           startup["taxonomy.FromGraph"].MeanNS() / 1e9,
		"hin.rebuild_ms":             commit["hin.rebuild"].MeanNS() / 1e6,
	}
}
