// Command semsim answers similarity queries over a HIN stored in the text
// graph format (see internal/hin). Subcommands:
//
//	semsim info   -graph g.hin
//	semsim query  -graph g.hin -u NAME -v NAME [flags]
//	semsim topk   -graph g.hin -u NAME -k 10 [flags]
//	semsim single -graph g.hin -u NAME -k 10 [flags]   (inverted-index single-source)
//	semsim exact  -graph g.hin -top 20 [flags]
//	semsim serve  -graph g.hin -debug-addr :6060       (resident HTTP server, see serve.go)
//	semsim convert -graph g.hin -in w.walks -out w2.walks -walk-format v3
//	semsim diag   -addr HOST:PORT [-out DIR]           (fetch and unpack /debug/diag, see diag.go)
//
// Shared flags: -c decay factor, -theta pruning threshold, -nw walks per
// node, -t walk length, -sling SO-cache cutoff, -seed, -backend engine
// backend (mc|reduced|exact|linear), -autoplan adaptive top-k planning. The
// walk index can be persisted across runs with -save-walks FILE /
// -load-walks FILE; -walk-format picks the on-disk layout (v2 flat, v3
// compressed blocks — the default), convert re-encodes an existing file
// between the two, and -lazy-walks / -walk-cache-bytes serve a v3 file
// demand-paged through a bounded block cache instead of loading it
// whole. serve additionally takes -debug-addr (required),
// -warmup, -shadow-rate/-shadow-backend (sampled shadow verification on
// an exact reference backend), -query-log/-query-log-max-bytes (every
// request's wide event — the flight recorder's record, phase durations
// included — as a JSON line, with optional size rotation),
// -health-interval (runtime telemetry cadence),
// -slo-latency/-slo-objective/-slo-window (multi-window burn-rate SLO
// gauges) and -profile-p99 and friends (anomaly-triggered CPU+heap
// profiling at /debug/profiles); it mounts
// /metrics, /debug/vars, /debug/pprof/ and /healthz next to the query
// API (including /explain estimate-quality traces), and shuts down
// gracefully on SIGINT/SIGTERM (in-flight requests drain, a final
// metrics snapshot is logged).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"semsim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	// diag talks to a running server; it needs no graph, so it parses its
	// own flags and exits before the -graph requirement below.
	if cmd == "diag" {
		if err := runDiag(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		graphPath  = fs.String("graph", "", "path to the HIN text file (required)")
		uName      = fs.String("u", "", "first node name")
		vName      = fs.String("v", "", "second node name")
		k          = fs.Int("k", 10, "top-k size")
		top        = fs.Int("top", 20, "pairs to print for exact")
		c          = fs.Float64("c", 0.6, "decay factor")
		theta      = fs.Float64("theta", 0.05, "pruning threshold (0 disables)")
		nw         = fs.Int("nw", 150, "walks per node")
		t          = fs.Int("t", 15, "walk length")
		sling      = fs.Float64("sling", 0.1, "SLING SO-cache cutoff (0 disables)")
		iters      = fs.Int("iters", 10, "iterations for exact")
		seed       = fs.Int64("seed", 1, "random seed")
		saveWalks  = fs.String("save-walks", "", "persist the walk index to this file after building")
		loadWalks  = fs.String("load-walks", "", "load a previously saved walk index instead of sampling")
		walkFormat = fs.String("walk-format", "v3",
			"on-disk walk format for -save-walks and convert: "+strings.Join(semsim.WalkFormats(), "|"))
		lazyWalks = fs.Bool("lazy-walks", false,
			"serve walks demand-paged from the -load-walks file (v3 format) instead of loading it whole")
		walkCache = fs.Int64("walk-cache-bytes", 0,
			"decoded-block cache budget for -lazy-walks (0 = 64 MiB default)")
		convertIn  = fs.String("in", "", "convert: source walk file")
		convertOut = fs.String("out", "", "convert: destination walk file")
		backend    = fs.String("backend", "mc", "engine backend: "+strings.Join(semsim.Backends(), "|"))
		autoplan   = fs.Bool("autoplan", false, "let the adaptive planner pick the top-k strategy per query")
		kernel     = fs.String("kernel", "auto", "semantic kernel: auto|on|off")
		kernelMem  = fs.Int64("kernel-budget", 0, "dense kernel memory budget in bytes (0 = 64 MiB default)")
		debugAddr  = fs.String("debug-addr", "", "serve: listen address for the HTTP/debug server (e.g. :6060)")
		warmup     = fs.Int("warmup", 4, "serve: warm-up queries run at startup to populate the metrics")
		shadowRate = fs.Int("shadow-rate", 256,
			"serve: re-score 1 in N queries on an exact reference backend off the hot path; the reference is built in the background after readiness and after each /mutate, and samples are skipped until it is ready; a linear reference also fills the dense SO table queries read (0 disables shadow verification)")
		shadowBackend = fs.String("shadow-backend", "",
			"serve: reference backend for shadow verification (linear|exact|reduced; empty reuses an exact -backend, else linear up to its node cap and none above it)")
		queryLog = fs.String("query-log", "",
			"serve: append every API request's wide event (the flight recorder's record) as a JSON line to this file ('-' = stdout)")
		queryLogMax = fs.Int64("query-log-max-bytes", 0,
			"serve: rotate the query log when it would exceed this size (0 = no rotation)")
		queryLogGens = fs.Int("query-log-max-generations", 1,
			"serve: rotated query-log generations to keep (PATH.1 newest .. PATH.N oldest)")
		healthEvery = fs.Duration("health-interval", 0,
			"serve: runtime health poll interval (0 = 10s default)")
		sloLatency = fs.Duration("slo-latency", 0,
			"serve: latency SLO threshold; requests slower than this burn the error budget (0 = SLO tracking off)")
		sloObjective = fs.Float64("slo-objective", 0.99,
			"serve: SLO objective as a good-request fraction in (0,1)")
		sloWindow = fs.Duration("slo-window", 5*time.Minute,
			"serve: short burn-rate window (the long window is 12x this)")
		profileP99 = fs.Duration("profile-p99", 0,
			"serve: capture a CPU+heap profile pair into /debug/profiles when the inter-poll query p99 exceeds this (0 = off)")
		profileInterval = fs.Duration("profile-interval", 0,
			"serve: anomaly profiler poll interval (0 = 10s default)")
		profileCooldown = fs.Duration("profile-cooldown", 0,
			"serve: minimum spacing between anomaly captures (0 = 5m default)")
		profileRing = fs.Int("profile-ring", 0,
			"serve: anomaly capture ring size (0 = 4 default)")
	)
	fs.Parse(os.Args[2:])
	if *graphPath == "" {
		fatal("missing -graph")
	}
	f, err := os.Open(*graphPath)
	if err != nil {
		fatal(err)
	}
	g, err := semsim.ReadGraph(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	tax, err := semsim.BuildTaxonomy(g, semsim.TaxonomyOptions{})
	if err != nil {
		fatal(err)
	}
	lin := semsim.NewLin(tax)

	node := func(name string) semsim.NodeID {
		id, ok := g.NodeByName(name)
		if !ok {
			fatal(fmt.Sprintf("unknown node %q", name))
		}
		return id
	}
	buildIndex := func(meetIndex bool) *semsim.Index {
		opts := semsim.IndexOptions{
			NumWalks: *nw, WalkLength: *t, C: *c, Theta: *theta,
			SLINGCutoff: *sling, Seed: *seed, Parallel: true,
			MeetIndex: meetIndex,
			Backend:   *backend, AutoPlan: *autoplan,
			SemanticKernel: *kernel, KernelMemoryBudget: *kernelMem,
			LazyWalks: *lazyWalks, WalkCacheBytes: *walkCache,
		}
		var idx *semsim.Index
		var err error
		if *loadWalks != "" {
			idx, err = semsim.OpenIndexFile(*loadWalks, g, lin, opts)
		} else {
			if *lazyWalks {
				fatal("-lazy-walks requires -load-walks (a freshly sampled index is resident)")
			}
			idx, err = semsim.BuildIndex(g, lin, opts)
		}
		if err != nil {
			fatal(err)
		}
		if *saveWalks != "" {
			wf, err := os.Create(*saveWalks)
			if err != nil {
				fatal(err)
			}
			if err := idx.SaveWalksFormat(wf, *walkFormat); err != nil {
				fatal(err)
			}
			if err := wf.Close(); err != nil {
				fatal(err)
			}
		}
		return idx
	}

	switch cmd {
	case "info":
		st := g.Stats()
		fmt.Printf("nodes: %d\nedges: %d\nlabels: %d\navg in-degree: %.2f\nmax in-degree: %d\n",
			st.Nodes, st.Edges, st.Labels, st.AvgInDeg, st.MaxInDeg)
		fmt.Printf("taxonomy depth: %d, broken cycles: %d\n", tax.MaxDepth(), tax.BrokenCycles())
		fmt.Printf("decay upper bound (sampled 10k pairs): %.4f\n",
			semsim.DecayUpperBound(g, lin, 10000))
	case "query":
		if *uName == "" || *vName == "" {
			fatal("query needs -u and -v")
		}
		u, v := node(*uName), node(*vName)
		idx := buildIndex(false)
		fmt.Printf("sem(%s,%s)     = %.6f\n", *uName, *vName, lin.Sim(u, v))
		fmt.Printf("SemSim(%s,%s)  = %.6f\n", *uName, *vName, idx.Query(u, v))
		fmt.Printf("SimRank(%s,%s) = %.6f\n", *uName, *vName, idx.SimRankQuery(u, v))
	case "topk":
		if *uName == "" {
			fatal("topk needs -u")
		}
		u := node(*uName)
		idx := buildIndex(false)
		for i, s := range idx.TopK(u, *k) {
			fmt.Printf("%2d. %-30s %.6f\n", i+1, g.NodeName(s.Node), s.Score)
		}
	case "single":
		if *uName == "" {
			fatal("single needs -u")
		}
		u := node(*uName)
		idx := buildIndex(true)
		ss, err := idx.SingleSource(u)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d nodes with nonzero estimates; top %d:\n", len(ss), *k)
		for i, s := range idx.TopK(u, *k) {
			fmt.Printf("%2d. %-30s %.6f\n", i+1, g.NodeName(s.Node), s.Score)
		}
	case "convert":
		if *convertIn == "" || *convertOut == "" {
			fatal("convert needs -in and -out")
		}
		in, err := os.Open(*convertIn)
		if err != nil {
			fatal(err)
		}
		out, err := os.Create(*convertOut)
		if err != nil {
			fatal(err)
		}
		written, err := semsim.ConvertWalks(in, g, out, *walkFormat)
		in.Close()
		if err != nil {
			out.Close()
			fatal(err)
		}
		if err := out.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "semsim: convert: wrote %s (%s, %d bytes)\n",
			*convertOut, *walkFormat, written)
	case "serve":
		if *debugAddr == "" {
			fatal("serve needs -debug-addr")
		}
		err := runServe(g, lin, serveConfig{
			debugAddr:        *debugAddr,
			warmup:           *warmup,
			walksPath:        *loadWalks,
			queryLogPath:     *queryLog,
			queryLogMaxBytes: *queryLogMax,
			queryLogMaxGens:  *queryLogGens,
			healthInterval:   *healthEvery,
			sloLatency:       *sloLatency,
			sloObjective:     *sloObjective,
			sloWindow:        *sloWindow,
			profileP99:       *profileP99,
			profileInterval:  *profileInterval,
			profileCooldown:  *profileCooldown,
			profileRing:      *profileRing,
			opts: semsim.IndexOptions{
				NumWalks: *nw, WalkLength: *t, C: *c, Theta: *theta,
				SLINGCutoff: *sling, Seed: *seed, Parallel: true,
				Backend: *backend, AutoPlan: *autoplan,
				SemanticKernel: *kernel, KernelMemoryBudget: *kernelMem,
				ShadowRate: *shadowRate, ShadowBackend: *shadowBackend,
				LazyWalks: *lazyWalks, WalkCacheBytes: *walkCache,
			},
		}, nil)
		if err != nil {
			fatal(err)
		}
	case "exact":
		res, err := semsim.Exact(g, lin, semsim.ExactOptions{C: *c, MaxIterations: *iters, Parallel: true})
		if err != nil {
			fatal(err)
		}
		type pair struct {
			u, v  semsim.NodeID
			score float64
		}
		var best []pair
		for u := 0; u < g.NumNodes(); u++ {
			for v := u + 1; v < g.NumNodes(); v++ {
				best = append(best, pair{semsim.NodeID(u), semsim.NodeID(v),
					res.Scores.At(semsim.NodeID(u), semsim.NodeID(v))})
			}
		}
		for i := 0; i < len(best); i++ {
			for j := i + 1; j < len(best); j++ {
				if best[j].score > best[i].score {
					best[i], best[j] = best[j], best[i]
				}
			}
			if i >= *top-1 {
				break
			}
		}
		limit := *top
		if limit > len(best) {
			limit = len(best)
		}
		for i := 0; i < limit; i++ {
			fmt.Printf("%2d. %-25s %-25s %.6f\n", i+1,
				g.NodeName(best[i].u), g.NodeName(best[i].v), best[i].score)
		}
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: semsim {info|query|topk|single|exact|serve|convert} -graph FILE [flags]")
	fmt.Fprintln(os.Stderr, "       semsim diag -addr HOST:PORT [-out DIR]")
}

func fatal(v interface{}) {
	fmt.Fprintln(os.Stderr, "semsim:", v)
	os.Exit(1)
}
