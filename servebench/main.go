// Command servebench measures `semsim serve` end to end. For one
// workload and seed it builds semsim and datagen from the tree it runs
// in, generates the benchmark graph, starts a fresh server with default
// flags, drives the workload from one client process, checks the
// answers against an in-process index, and prints the metrics as one
// JSON object on its last output line. From the repository root:
//
//	bash servebench/run.sh --workload pair --seed 1 --seconds 20 --trace 0
//
// (run.sh builds this command with the Go build cache under
// .bench_build and runs it there). With --trace 0 the metrics
// are the end-to-end ones of BENCHMARK.json; with --trace 1 the same
// sequence is traced and replayed in-process layer by layer (the
// replay command) and the per-layer metrics are printed instead.
// Workloads and metrics are described in README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"semsim/servebench/bench"
)

// runDeadline bounds a run after its builds.
const runDeadline = 170 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // repository checkout the program is built from
	work     string // scratch directory inside the checkout
}

// result is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: pair or topk")
		seed     = flag.Int64("seed", 1, "workload seed (request and batch sequences)")
		seconds  = flag.Int("seconds", 20, "run length the phases are sized for")
		trace    = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		refchild = flag.Bool("refchild", false, "serve the host speed references (the harness starts itself so)")
	)
	flag.Parse()
	if *refchild {
		fail(serveRefChild())
	}
	root, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		root: root, work: filepath.Join(root, ".bench_build", "servebench"),
	}
	// One client thread: a 2-thread client on 2 connections measured
	// itself as much as the server. Its collections run on that thread
	// too, in the middle of timed requests; collect four times less often.
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(400)
	info, res, err := run(cfg)
	if err != nil {
		fail(err)
	}
	infoLine, _ := json.Marshal(info)
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Printf("info %s\n%s\n", infoLine, line)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "servebench:", err)
	os.Exit(1)
}

func run(cfg config) (map[string]any, *result, error) {
	phases, err := bench.PlanPhases(cfg.workload, cfg.seconds)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 12*time.Minute)
	defer cancel()
	semsimBin := filepath.Join(cfg.work, "semsim")
	datagenBin := filepath.Join(cfg.work, "datagen")
	if err := goBuild(ctx, cfg.root, "./cmd/semsim", semsimBin); err != nil {
		return nil, nil, err
	}
	if err := goBuild(ctx, cfg.root, "./cmd/datagen", datagenBin); err != nil {
		return nil, nil, err
	}
	graph := filepath.Join(cfg.work, "graph.hin")
	if err := genGraph(ctx, datagenBin, graph); err != nil {
		return nil, nil, err
	}
	g, err := loadGraph(graph)
	if err != nil {
		return nil, nil, err
	}
	// The builds above may take minutes in a fresh checkout; after them a
	// run takes about a minute. A server that accepts connections but
	// never answers would otherwise cost a 10 s timeout per request.
	// Exiting kills every child (they carry Pdeathsig).
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "servebench: run exceeded %s; giving up\n", runDeadline)
		os.Exit(1)
	})
	defer watchdog.Stop()

	var tr *bench.Tracer
	if cfg.trace {
		tr = bench.NewTracer()
	}
	m, err := drive(cfg, phases, semsimBin, graph, bench.Categories(g), tr)
	if err != nil {
		return nil, nil, err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := m.checkAnswers(g); err != nil {
		return nil, nil, err
	}

	info := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"graph": fmt.Sprintf("datagen -dataset %s -size %d -seed %d (%d nodes, %d edges)",
			bench.Dataset, bench.GraphSize, bench.GraphSeed, g.NumNodes(), g.NumEdges()),
		"nproc": runtime.NumCPU(), "server_gomaxprocs": runtime.NumCPU(), "client_gomaxprocs": 1,
		"go": runtime.Version(), "commit": treeVersion(cfg.root),
		"read_samples": len(m.readLat), "answers_checked": m.checked,
		"batches_committed":   m.writes.ok,
		"cpu_ref_nominal_us":  float64(bench.CPURefNominal) / 1e3,
		"echo_ref_nominal_us": float64(bench.EchoRefNominal) / 1e3,
	}
	// The measured values behind the reported ones, with the host
	// reference times they were scaled by.
	rps, p50, p99, beyond := m.blockStats()
	blockRefs, setupRef := m.refsUS()
	info["read_block_rps"] = rps
	info["read_block_p50_ms"] = p50
	info["read_block_p99_ms"] = p99
	info["read_block_min_beyond_p99"] = beyond
	info["read_block_ref_us"] = blockRefs
	info["setup_samples_s"] = durationsS(m.setups)
	// The share of requests that repeat an earlier one, on both
	// workloads' sequences for this seed: the shared-work contrast.
	repeat := map[string]float64{}
	for _, w := range bench.Workloads {
		ph, _ := bench.PlanPhases(w, cfg.seconds)
		repeat[w] = bench.RepeatShare(w, cfg.seed, ph.WarmReads+ph.MeasReads)
	}
	info["repeat_share"] = repeat
	info["setup_ref_us"] = setupRef
	info["rss_end_mb"] = m.rssCommitMiB
	res := &result{
		Correct:   m.tally.failed() == 0,
		Attempted: m.tally.attempted,
		Failed:    m.tally.failed(),
	}
	if cfg.trace {
		layer, err := replay(ctx, cfg, graph)
		if err != nil {
			return nil, nil, err
		}
		res.Metrics = m.perLayer(layer)
		info["plan_share"] = m.planShares()
		if err := writeSpans(cfg, tr); err != nil {
			return nil, nil, err
		}
	} else {
		res.Metrics = m.endToEnd()
	}
	return info, res, nil
}

// replay builds and runs the in-process replay on the run's graph and
// sequence, returning its metrics.
func replay(ctx context.Context, cfg config, graph string) (map[string]float64, error) {
	bin := filepath.Join(cfg.work, "replay")
	if err := goBuild(ctx, filepath.Join(cfg.root, "servebench"), "./replay", bin); err != nil {
		return nil, err
	}
	cmd := execCommand(ctx, bin, "-graph", graph, "-workload", cfg.workload,
		"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-spans", filepath.Join(cfg.work, "spans-replay-"+cfg.workload+".ndjson"))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	var layer map[string]float64
	if err := json.Unmarshal(lastLine(out), &layer); err != nil {
		return nil, fmt.Errorf("replay output: %w", err)
	}
	return layer, nil
}

func writeSpans(cfg config, tr *bench.Tracer) error {
	f, err := os.Create(filepath.Join(cfg.work, "spans-http-"+cfg.workload+".ndjson"))
	if err != nil {
		return err
	}
	if err := tr.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
