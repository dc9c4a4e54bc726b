package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"semsim"
	"semsim/servebench/bench"
)

// serveDeadline bounds one server start: the default shadow reference
// takes 1-3 s to build on the benchmark graph.
const serveDeadline = 90 * time.Second

// maxConsecutiveFailures aborts a phase whose server stopped answering,
// instead of timing out request after request.
const maxConsecutiveFailures = 50

// measurement is everything one run observed.
type measurement struct {
	workload string
	seed     int64
	setups   []time.Duration // the measured server's and the aux servers' set-up
	// setupUnits are the CPU reference units timed around the starts.
	setupUnits []time.Duration

	readLat []time.Duration // measured reads
	window  time.Duration   // measured phase wall time
	blocks  []block         // the measured phase, split (see bench.Phases.Blocks)
	writes  writeResult     // the measured server's probe commits

	tally   tally
	samples []sample // reads kept for the answer check (epoch 0)
	probes  []sample // the probe set, read after the last commit
	checked int
	batches []bench.Batch

	// Server-side samples: at start, around the measured phase, at end.
	start, pre, post, end *probe
	// Peak resident set (VmHWM) after the measured reads, and at the end
	// of the run, after the probe commit rebuilt the server's layers.
	rssMiB, rssCommitMiB float64

	cost     costSums
	overhead overheadResult
}

// drive starts the server, runs the workload's phases, reads the probe
// set and stops the server.
func drive(cfg config, ph bench.Phases, semsimBin, graph string, cats []string, tr *bench.Tracer) (*measurement, error) {
	m := &measurement{workload: cfg.workload, seed: cfg.seed}
	bs := bench.NewBatches(cfg.seed, cats)
	bodies := make([][]byte, ph.ProbeBatches)
	for j := range bodies {
		b := bs.Next()
		m.batches = append(m.batches, b)
		var err error
		if bodies[j], err = json.Marshal(b); err != nil {
			return nil, err
		}
	}

	ref, err := startRefChild()
	if err != nil {
		return nil, err
	}
	defer ref.stop()
	srv, err := m.startServer(ref, semsimBin, graph)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	serverErr := func(err error) error {
		return fmt.Errorf("%w; serve log tail:\n%s", err, srv.tail())
	}
	if m.start, err = srv.sample(); err != nil {
		return nil, serverErr(err)
	}

	rc := newConn(srv.addr, readTimeout)
	defer rc.close()
	wc := newConn(srv.addr, writeTimeout)
	defer wc.close()
	rd := &reader{c: rc, reads: bench.NewReads(cfg.workload, cfg.seed), stride: sampleStride(cfg.workload), tr: tr}
	w := &writer{c: wc, bodies: bodies, tr: tr}

	run := tr.Start("run", 0)
	rd.parent = tr.Start("warmup", run)
	for i := 0; i < ph.WarmReads && !rd.broken(); i++ {
		rd.next(false)
	}
	tr.End(rd.parent)
	if rd.broken() {
		return nil, serverErr(errors.New("warm-up reads failing"))
	}
	if err := m.closedLoop(srv, rd, ref, ph, tr, run, semsimBin, graph); err != nil {
		return nil, serverErr(err)
	}
	w.parent = tr.Start("probe-commits", run)
	w.run(&m.writes)
	tr.End(w.parent)
	if tr != nil {
		m.overhead = overheadProbe(rd, probeBlock(cfg.workload), srv.cmd.Process.Pid)
	}
	m.samples, m.cost = rd.samples, rd.cost

	for i, p := range bench.ProbeReads(cfg.seed, m.writes.ok) {
		if rc.call(http.MethodGet, p.Path(), fmt.Sprintf("sb-p%d", i), nil) {
			m.probes = append(m.probes, sample{p, bytes.Clone(rc.buf.Bytes())})
		}
	}
	tr.End(run)
	if !srv.alive() {
		return nil, serverErr(errors.New("semsim serve died during the run"))
	}
	if m.end, err = srv.sample(); err != nil {
		return nil, serverErr(err)
	}
	if m.rssCommitMiB, err = peakRSSMiB(srv.cmd.Process.Pid); err != nil {
		return nil, err
	}
	m.tally.add(rc.tally)
	m.tally.add(wc.tally)
	return m, nil
}

// setupRefUnits is how many CPU reference units are timed before a
// server start and again once it is ready, each after refIdle, as the
// units interleaved with top-k reads each follow an idle stretch of the
// reference child.
const (
	setupRefUnits = 10
	refIdle       = 15 * time.Millisecond
)

// startServer starts a server and keeps its set-up time, and the CPU
// reference units timed before the launch and once it is ready.
func (m *measurement) startServer(ref *refChild, semsimBin, graph string) (*server, error) {
	if err := m.setupRefs(ref); err != nil {
		return nil, err
	}
	s, err := startServer(semsimBin, graph, serveDeadline)
	if err != nil {
		return nil, err
	}
	if err := m.setupRefs(ref); err != nil {
		s.stop()
		return nil, err
	}
	m.setups = append(m.setups, s.setup)
	return s, nil
}

func (m *measurement) setupRefs(ref *refChild) error {
	for i := 0; i < setupRefUnits; i++ {
		time.Sleep(refIdle)
		d, err := ref.cpu()
		if err != nil {
			return err
		}
		m.setupUnits = append(m.setupUnits, d)
	}
	return nil
}

// sampleStride picks how often a read response is kept for the answer
// check: a few thousand /query answers, a few hundred top-k lists.
func sampleStride(workload string) int {
	if workload == bench.TopK {
		return 11
	}
	return 97
}

// broken reports a stream whose last reads all failed.
func (r *reader) broken() bool { return r.failRun >= maxConsecutiveFailures }

// refEvery is how many measured reads go before each round of reference
// units, and refRound times one round of the units the workload's reads
// are scaled by, each adding about a tenth to the reads' time.
//
// Pair: after every 64th read, 8 round trips back to back, the first left
// out. The server answers reads back to back and stays awake between
// them; the first round trip to the idle child pays for waking it, which
// grew faster than the reads under host contention.
//
// Topk: a CPU unit after every 8th read. It includes waking the child's
// two threads, as each top-k read wakes the server's scoring pool.
func refEvery(workload string) int {
	if workload == bench.TopK {
		return 8
	}
	return 64
}

func refRound(ref *refChild, workload string, units []time.Duration) ([]time.Duration, error) {
	if workload == bench.TopK {
		d, err := ref.cpu()
		return append(units, d), err
	}
	for i := 0; i < 8; i++ {
		d, err := ref.echo()
		if err != nil {
			return units, err
		}
		if i > 0 {
			units = append(units, d)
		}
	}
	return units, nil
}

// closedLoop is the measured phase: a fixed count of reads back to back
// on one connection, in blocks, with reference units interleaved. A
// block's wall time leaves the units out. Aux rounds between blocks of
// an untraced run start a second server while the measured one idles
// and take its set-up time.
func (m *measurement) closedLoop(srv *server, rd *reader, ref *refChild, ph bench.Phases, tr *bench.Tracer, run int32, semsimBin, graph string) error {
	var err error
	if m.pre, err = srv.sample(); err != nil {
		return err
	}
	every := refEvery(m.workload)
	measure := tr.Start("measure", run)
	for b := 0; b < ph.Blocks; b++ {
		// Aux rounds only feed setup_s, which a traced run does not report.
		if ph.AuxBefore(b) && tr == nil {
			s, err := m.startServer(ref, semsimBin, graph)
			if err != nil {
				return err
			}
			s.stop()
		}
		rd.parent = tr.Start("read-block", measure)
		var units []time.Duration
		var unitsWall time.Duration
		from, tb := len(rd.lat), time.Now()
		lo, hi := b*ph.MeasReads/ph.Blocks, (b+1)*ph.MeasReads/ph.Blocks
		for i := lo; i < hi && !rd.broken(); i++ {
			rd.next(true)
			if (i-lo)%every == every-1 {
				t0 := time.Now()
				if units, err = refRound(ref, m.workload, units); err != nil {
					return err
				}
				unitsWall += time.Since(t0)
			}
		}
		dur := time.Since(tb) - unitsWall
		tr.End(rd.parent)
		m.blocks = append(m.blocks, block{lat: rd.lat[from:], dur: dur, ref: bench.MedianDuration(units)})
		m.window += dur
	}
	tr.End(measure)
	if rd.broken() {
		return errors.New("measured reads failing")
	}
	if m.post, err = srv.sample(); err != nil {
		return err
	}
	if m.rssMiB, err = peakRSSMiB(srv.cmd.Process.Pid); err != nil {
		return err
	}
	m.readLat = rd.lat
	return nil
}

// overheadResult compares read cycles with and without client tracing.
type overheadResult struct {
	untracedUS, tracedUS float64 // median per-read cycle of the blocks
	// cpuUSPerRead is the server's CPU time (utime+stime) per read over
	// the untraced blocks.
	cpuUSPerRead float64
}

// probeBlock sizes the overhead probe's blocks at a quarter to half a
// second of reads.
func probeBlock(workload string) int {
	if workload == bench.TopK {
		return 100
	}
	return 8000
}

// overheadProbe alternates untraced and traced blocks of reads from the
// workload's sequence (five of each) and returns the median per-read
// cycle time of each kind, and the server's (pid's) CPU time per read in
// the untraced ones. Alternating cancels the drift of cache state and
// machine load between the two. It runs after the probe commits, so it
// keeps no responses for the epoch-0 answer check.
func overheadProbe(rd *reader, block, pid int) overheadResult {
	tr, stride := rd.tr, rd.stride
	defer func() { rd.tr, rd.stride = tr, stride }()
	rd.stride = 0
	parent := tr.Start("overhead-probe", 0)
	var plain, traced []float64
	var ticks float64
	saved := rd.cost
	for b := 0; b < 10; b++ {
		if b%2 == 0 {
			rd.tr = nil
		} else {
			rd.tr, rd.parent = tr, parent
		}
		c0, err0 := procCPUTicks(pid)
		t0 := time.Now()
		for i := 0; i < block; i++ {
			rd.next(rd.tr != nil)
		}
		cycle := float64(time.Since(t0).Microseconds()) / float64(block)
		c1, err1 := procCPUTicks(pid)
		if b%2 == 0 {
			plain = append(plain, cycle)
			if err0 == nil && err1 == nil {
				ticks += c1 - c0
			}
		} else {
			traced = append(traced, cycle)
		}
	}
	tr.End(parent)
	rd.cost = saved
	rd.lat = nil
	return overheadResult{
		untracedUS:   bench.Median(plain),
		tracedUS:     bench.Median(traced),
		cpuUSPerRead: ticks / clockTicks * 1e6 / float64(5*block),
	}
}

// checkAnswers scores the kept responses on an in-process index, then
// re-applies the committed batches and compares the probe set. Every
// difference is a failed op.
func (m *measurement) checkAnswers(g *semsim.Graph) error {
	c, err := newChecker(g)
	if err != nil {
		return fmt.Errorf("in-process index: %w", err)
	}
	defer c.close()
	mismatch := func(err error) {
		m.tally.mismatches++
		if m.tally.mismatches <= 5 {
			fmt.Fprintln(os.Stderr, "servebench: answer mismatch:", err)
		}
	}
	for _, s := range m.samples {
		if err := c.check(s.read, s.body); err != nil {
			mismatch(err)
		}
	}
	for j, ok := range m.writes.okAt {
		if ok {
			if err := bench.Apply(c.idx, m.batches[j]); err != nil {
				return fmt.Errorf("in-process commit of batch %d: %w", j, err)
			}
		}
	}
	if epoch := m.end.metrics["semsim_mutator_epoch"]; epoch != float64(m.writes.ok) || c.idx.Epoch() != uint64(m.writes.ok) {
		mismatch(fmt.Errorf("server epoch %v, in-process %d, after %d committed batches", epoch, c.idx.Epoch(), m.writes.ok))
	}
	for _, s := range m.probes {
		if err := c.check(s.read, s.body); err != nil {
			mismatch(err)
		}
	}
	m.checked = len(m.samples) + len(m.probes) + 1
	return nil
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return bench.Ratio(s, float64(len(xs)))
}

// block is one slice of the measured phase.
type block struct {
	lat []time.Duration
	dur time.Duration // wall time of the reads
	ref time.Duration // median of the reference units interleaved with them
}

// scale is the factor that brings a block's read times to the reference
// speed (see bench/hostref.go): round trips for pair, CPU units for topk.
func (m *measurement) scale(b block) float64 {
	nominal := bench.EchoRefNominal
	if m.workload == bench.TopK {
		nominal = bench.CPURefNominal
	}
	return float64(nominal) / float64(b.ref)
}

// blockStats returns the per-block read rate, p50 and p99 (ms) as
// measured, and the smallest count of samples any block has beyond its
// p99.
func (m *measurement) blockStats() (rps, p50, p99 []float64, minBeyond int) {
	minBeyond = -1
	for _, b := range m.blocks {
		lat := msOf(b.lat)
		q99 := bench.Quantile(lat, 0.99)
		rps = append(rps, float64(len(lat))/b.dur.Seconds())
		p50 = append(p50, bench.Quantile(lat, 0.5))
		p99 = append(p99, q99)
		if n := bench.Beyond(lat, q99); minBeyond < 0 || n < minBeyond {
			minBeyond = n
		}
	}
	return rps, p50, p99, minBeyond
}

// readStats returns the read metrics at the reference speed: the
// medians over blocks of each block's rate and p50 (ms), and the lower
// quartile over blocks of each block's p99. A shared VM stalls now and
// then for a few milliseconds; every stall lands one read in the tail,
// so the blocks with more stalls have longer tails, and a median over
// blocks moved with the host's stall rate (0.21-0.25 spread over seeds
// against 0.07-0.14 for the lower quartile). The quieter blocks carry
// the tail the server itself adds, which shows in every block.
func (m *measurement) readStats() (rps, p50, p99 float64) {
	r, q50, q99, _ := m.blockStats()
	for i, b := range m.blocks {
		s := m.scale(b)
		r[i] /= s
		q50[i] *= s
		q99[i] *= s
	}
	sort.Float64s(q99)
	return bench.Median(r), bench.Median(q50), bench.Quantile(q99, 0.25)
}

// setupS returns the median set-up time (s), scaled to the reference
// speed by the median of the run's set-up reference units. One set-up
// sample does not follow the units timed around it: the parallel exact
// solve behind it gets one or two CPUs' worth for stretches of a second
// or more, which units a few milliseconds long do not catch. The run's
// units together do follow the host's speed from run to run.
func (m *measurement) setupS() float64 {
	ref := bench.MedianDuration(append([]time.Duration(nil), m.setupUnits...))
	return bench.AtRef(bench.Median(durationsS(m.setups)), ref, bench.CPURefNominal)
}

func durationsS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// refsUS returns the blocks' reference unit medians (µs) and the median
// of the set-up reference units.
func (m *measurement) refsUS() (blocks []float64, setup float64) {
	for _, b := range m.blocks {
		blocks = append(blocks, float64(b.ref)/1e3)
	}
	return blocks, float64(bench.MedianDuration(append([]time.Duration(nil), m.setupUnits...))) / 1e3
}

func (m *measurement) endToEnd() map[string]metric {
	rps, p50, p99 := m.readStats()
	return map[string]metric{
		"setup_s":     {m.setupS(), "s"},
		"read_rps":    {rps, "1/s"},
		"read_p50_ms": {p50, "ms"},
		"read_p99_ms": {p99, "ms"},
		"rss_peak_mb": {m.rssMiB, "MiB"},
		"ok_ratio":    {1 - bench.Ratio(float64(m.tally.failed()), float64(m.tally.attempted)), "1"},
	}
}

// planShares is the share of the measured top-k calls the planner sent
// to each strategy (semsim_plan_total).
func (m *measurement) planShares() map[string]float64 {
	out := map[string]float64{}
	var n float64
	for _, s := range []string{"brute", "sem-bounded", "collision", "linear"} {
		out[s] = bench.Delta(m.pre.metrics, m.post.metrics, `semsim_plan_total{strategy="`+s+`"}`)
		n += out[s]
	}
	for s := range out {
		out[s] = bench.Ratio(out[s], n)
	}
	return out
}

// perLayer combines the traced run's server-side deltas, response cost
// objects and client tallies with the replay's layer timings.
func (m *measurement) perLayer(layer map[string]float64) map[string]metric {
	pre, post := m.pre.metrics, m.post.metrics
	lat := msOf(m.readLat)
	reads := float64(len(lat))
	// pre and post bracket the measured reads only; the probe commits
	// come after post.
	handlerUS := bench.HistMean(pre, post, "semsim_http_request_seconds") * 1e6
	windowS := m.window.Seconds()

	co := m.cost
	walksEvaluated := float64(co.Pairs-co.SemSkips) * float64(bench.ServeOptions().NumWalks)
	rps, p50, _ := m.readStats()

	out := map[string]metric{
		"serve.handler_us":         {handlerUS, "us"},
		"serve.outside_handler_us": {mean(lat)*1e3 - handlerUS, "us"},
		"serve.handler_self_us":    {handlerUS - layer["facade_us_per_read"], "us"},
		"serve.encode_us":          {layer["serve.encode_us"], "us"},
		"serve.cpu_us_per_read":    {m.overhead.cpuUSPerRead, "us"},
		"serve.commit_ms":          {bench.HistMean(m.start.metrics, m.end.metrics, "semsim_commit_seconds") * 1e3, "ms"},
		"serve.rss_commit_peak_mb": {m.rssCommitMiB, "MiB"},

		"engine.shadow_checks_per_build": {bench.Ratio(m.end.metrics["semsim_shadow_checked_total"],
			1+float64(m.writes.ok)), "count"},

		"mc.walk_steps_per_read":   {bench.Ratio(float64(co.WalkSteps), float64(co.reads)), "count"},
		"mc.pairs_per_topk":        {bench.Ratio(float64(co.topkPairs), float64(co.topk)), "count"},
		"mc.kernel_probes_per_req": {bench.Ratio(float64(co.KernelProbes), float64(co.reads)), "count"},
		"mc.so_hit_ratio":          {bench.Ratio(float64(co.SOHits), float64(co.SOHits+co.SOMisses)), "1"},
		"mc.walk_cap_share":        {bench.Ratio(float64(co.WalkCaps), walksEvaluated), "1"},

		"go.gc_pause_ms_per_s": {bench.Ratio((m.post.memstat.PauseTotalNs-m.pre.memstat.PauseTotalNs)/1e6, windowS), "ms/s"},
		"go.allocs_per_req":    {bench.Ratio(m.post.memstat.Mallocs-m.pre.memstat.Mallocs, reads), "count"},

		"serve.status_4xx":       {float64(m.tally.status4xx), "count"},
		"serve.status_5xx":       {float64(m.tally.status5xx), "count"},
		"serve.transport_errors": {float64(m.tally.transport + m.tally.timeouts), "count"},
		"serve.mutate_conflicts": {float64(m.tally.conflicts), "count"},
		"quality.shadow_dropped": {m.end.metrics["semsim_shadow_dropped_total"], "count"},

		"trace.read_p50_ms":          {p50, "ms"},
		"trace.read_rps":             {rps, "1/s"},
		"trace.overhead_us_per_read": {m.overhead.tracedUS - m.overhead.untracedUS, "us"},
		"trace.overhead_share":       {bench.Ratio(m.overhead.tracedUS-m.overhead.untracedUS, m.overhead.untracedUS), "1"},
	}
	for name, unit := range replayUnits {
		out[name] = metric{layer[name], unit}
	}
	return out
}

// replayUnits lists the metrics the replay command measures.
var replayUnits = map[string]string{
	"semsim.query_us":            "us",
	"semsim.simrank_us":          "us",
	"semsim.explain_us":          "us",
	"semsim.commit_ms":           "ms",
	"engine.topk_ms":             "ms",
	"engine.topk_brute_ms":       "ms",
	"engine.topk_sem_bounded_ms": "ms",
	"engine.topk_collision_ms":   "ms",
	"engine.plan_regret":         "1",
	"engine.shadow_build_s":      "s",
	"engine.shadow_build_ms":     "ms",
	"mc.query_us":                "us",
	"mc.so_migrate_ms":           "ms",
	"semantic.kernel_build_s":    "s",
	"semantic.kernel_refresh_ms": "ms",
	"semantic.sim_ns":            "ns",
	"walk.build_s":               "s",
	"walk.meet_build_s":          "s",
	"walk.refresh_ms":            "ms",
	"walk.meet_repair_ms":        "ms",
	"walk.resampled_per_commit":  "count",
	"hin.read_s":                 "s",
	"taxonomy.build_s":           "s",
	"hin.rebuild_ms":             "ms",
}

// execCommand is exec.CommandContext for a child that must not outlive
// the benchmark.
func execCommand(ctx context.Context, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

func lastLine(out []byte) []byte {
	out = bytes.TrimRight(out, "\n")
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		return out[i+1:]
	}
	return out
}

// treeVersion names the code under test: the git commit when the
// checkout is a repository, otherwise a hash of its Go sources.
func treeVersion(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() && (rel == ".bench_build" || rel == "servebench" || strings.HasPrefix(d.Name(), ".") && rel != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
