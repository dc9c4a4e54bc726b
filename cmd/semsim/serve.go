package main

// The serve subcommand keeps a built index resident and exposes it over
// HTTP together with the full observability surface:
//
//	semsim serve -graph g.hin -debug-addr :6060
//
//	/query?u=NAME&v=NAME   similarity of one pair (JSON)
//	/explain?u=NAME&v=NAME estimate-quality evidence: CI, variance, pruning (JSON)
//	/topk?u=NAME&k=10      top-k most similar nodes (JSON)
//	/mutate                POST a mutation batch (JSON ops), committed atomically
//	/snapshot              structured metrics snapshot (JSON)
//	/metrics               Prometheus text exposition
//	/debug/vars            expvar (the registry publishes under "semsim")
//	/debug/pprof/          net/http/pprof profiles
//	/debug/profiles        ring of anomaly-triggered CPU+heap captures
//	/debug/flight          flight recorder: recent requests+commits as NDJSON
//	/debug/heavy           most expensive source nodes by cumulative query cost
//	/debug/diag            one-shot diagnostics bundle (tar.gz of all of the above)
//	/healthz               readiness probe: 503 while building/warming, 200 after
//
// Errors are structured JSON ({"error": "..."}) with meaningful status
// codes: 400 for malformed parameters, 404 for unknown nodes (including
// engine bounds errors), 500 otherwise.
//
// POST /mutate accepts {"ops": [...]} where each op is one of
// {"op":"add_edge","from":N,"to":N,"label":L,"weight":W},
// {"op":"remove_edge","from":N,"to":N,"label":L},
// {"op":"add_node","name":N,"label":L} or
// {"op":"update_concept_freq","concept":N,"freq":F}. Node names resolve
// against the current epoch's graph, plus names minted by add_node ops
// earlier in the same batch. The batch commits atomically through the
// Mutator: concurrent queries keep answering from the previous epoch
// until the swap, then observe the new one — never a mix. Requests are
// serialized server-side; a commit that still loses the race answers
// 409 and can be retried verbatim. The response carries the new epoch
// and the repair stats (ops applied, walks resampled, nodes added).
//
// The listener binds before the index build starts, answering 503 on
// every route (including /healthz) until the index is built and the
// -warmup queries have run; orchestrators and cmd/loadgen gate on the
// /healthz flip. Every API request is assigned a request ID — taken
// from an X-Semsim-Request header when the caller sent a well-formed
// one, generated otherwise — echoed back in the same header and stamped
// into the wide-event query log and the sampled trace log, so one ID
// follows a request across process boundaries.
//
// The estimate-quality layer is on by default: the shadow verifier
// re-scores 1 in -shadow-rate queries on an exact reference backend —
// by default the linear solve, which reads its normalization from the
// dense SO table the queries then read too (semsim_shadow_* series; 0
// disables). The reference is built in the background, so neither
// readiness nor a /mutate waits for its solve; samples taken before it
// is ready are counted as skipped, and above the linear node cap no
// reference is built unless -shadow-backend names one. The runtime
// health collector
// polls memory/GC/goroutine gauges every -health-interval
// (semsim_runtime_* series). With -query-log PATH ("-" for stdout)
// every request emits one structured JSON wide event
// (-query-log-max-bytes adds size-based rotation, keeping
// -query-log-max-generations rotated files PATH.1..PATH.N). The
// serving-SLO layer is opt-in: -slo-latency sets the latency objective
// threshold and enables the multi-window burn-rate gauges
// (semsim_slo_*); -trace-log/-trace-sample write exported span traces
// as NDJSON for the sampled request subset; -profile-p99 arms the
// anomaly profiler, which captures a CPU+heap pprof pair into
// /debug/profiles when the inter-poll p99 crosses the threshold.
//
// A connection that has not sent its request headers within 10s is
// closed, as is a keep-alive connection idle for 2 minutes; responses
// have no write deadline, since /debug/pprof/profile and /debug/diag
// stream for as long as they are asked to.
//
// Shutdown is graceful: SIGINT/SIGTERM stops the listener, in-flight
// requests get shutdownTimeout (default 5s) to drain via
// http.Server.Shutdown, the shadow verifier drains its queue, and a
// final metrics snapshot is logged before the process exits.

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"semsim"
	"semsim/internal/obs"
	"semsim/internal/obs/flight"
	"semsim/internal/obs/profwatch"
	"semsim/internal/obs/quality"
	"semsim/internal/obs/slo"
	"semsim/internal/walk"
)

// serveConfig carries everything the serve subcommand needs besides the
// already-loaded graph and measure.
type serveConfig struct {
	debugAddr string
	warmup    int
	opts      semsim.IndexOptions
	// walksPath, when non-empty, loads (or, with opts.LazyWalks,
	// demand-pages) the walk index from this file instead of sampling at
	// startup.
	walksPath string
	// queryLogPath, when non-empty, streams one JSON wide event per
	// request to this file ("-" = stdout). queryLogMaxBytes > 0 adds
	// size-based rotation keeping queryLogMaxGens rotated generations
	// (PATH.1 newest; 0 or 1 keeps the historical single .1).
	queryLogPath     string
	queryLogMaxBytes int64
	queryLogMaxGens  int
	// healthInterval is the runtime health poll cadence (0 = default).
	healthInterval time.Duration
	// sloLatency arms the serving SLO tracker: requests slower than
	// this burn the latency error budget (0 = SLO tracking off).
	// sloObjective is the required good-request fraction (default
	// 0.99); sloWindow the short burn-rate window (default 5m, the long
	// window is 12x).
	sloLatency   time.Duration
	sloObjective float64
	sloWindow    time.Duration
	// traceLogPath, when non-empty, writes exported span traces for a
	// sampled fraction of requests ("-" = stdout) at traceSample
	// (default 0.01).
	traceLogPath string
	traceSample  float64
	// profileP99 arms the anomaly profiler: when the inter-poll p99 of
	// semsim_query_seconds exceeds it, a CPU+heap profile pair is
	// captured (0 = off). Interval/cooldown/ring default to
	// 10s/5m/4 when zero.
	profileP99      time.Duration
	profileInterval time.Duration
	profileCooldown time.Duration
	profileRing     int
	// stop, when non-nil, replaces the SIGINT/SIGTERM trap — closing it
	// initiates the same graceful shutdown (used by tests).
	stop <-chan struct{}
	// shutdownTimeout bounds the in-flight request drain (default 5s).
	shutdownTimeout time.Duration
	// readHeaderTimeout bounds how long a connection may take to send
	// its request headers (default readHeaderTimeout).
	readHeaderTimeout time.Duration
	// logw receives the startup trace and the final shutdown snapshot
	// (default os.Stderr).
	logw io.Writer
}

// Connection timeouts of the serve listener. A client that never
// finishes its request headers is cut off after readHeaderTimeout; a
// keep-alive connection idle for idleTimeout is closed, well above any
// pause of a live client between requests.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// runServe binds the listener (503 warming handler), builds the
// instrumented index, warms it, swaps in the real mux and serves until
// the listener fails or a shutdown signal arrives; on a signal it
// drains in-flight requests, logs a final metrics snapshot and returns
// nil. When ready is non-nil the bound address is sent on it once the
// server is warmed and answering (used by the CI smoke test to serve on
// 127.0.0.1:0).
func runServe(g *semsim.Graph, sem semsim.Measure, cfg serveConfig, ready chan<- string) error {
	logw := cfg.logw
	if logw == nil {
		logw = os.Stderr
	}
	reg := semsim.NewMetrics()
	tr := semsim.NewTrace("serve-startup")
	cfg.opts.Metrics = reg
	cfg.opts.Trace = tr
	cfg.opts.MeetIndex = true
	cfg.opts.AutoPlan = true

	// Bind before the potentially long index build: orchestrators can
	// probe /healthz immediately and get an honest 503 instead of a
	// connection refused they cannot distinguish from a dead process.
	l, err := net.Listen("tcp", cfg.debugAddr)
	if err != nil {
		return err
	}
	var handler atomic.Pointer[http.ServeMux]
	handler.Store(warmingMux())
	headerTimeout := cfg.readHeaderTimeout
	if headerTimeout <= 0 {
		headerTimeout = readHeaderTimeout
	}
	// No WriteTimeout: /debug/pprof/profile and /debug/diag legitimately
	// stream for longer than any fixed bound.
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handler.Load().ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: headerTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	fail := func(err error) error {
		srv.Close()
		return err
	}

	var idx *semsim.Index
	if cfg.walksPath != "" {
		idx, err = semsim.OpenIndexFile(cfg.walksPath, g, sem, cfg.opts)
	} else {
		idx, err = semsim.BuildIndex(g, sem, cfg.opts)
	}
	if err != nil {
		return fail(err)
	}
	defer idx.Close()

	var qlog *quality.QueryLog
	if cfg.queryLogPath != "" {
		w, closeLog, err := openLogSink(cfg.queryLogPath, cfg.queryLogMaxBytes, cfg.queryLogMaxGens)
		if err != nil {
			return fail(err)
		}
		defer closeLog()
		qlog = quality.NewQueryLog(w, reg)
	}
	health := quality.StartHealth(reg, cfg.healthInterval)
	defer health.Stop()

	var tracker *slo.Tracker
	if cfg.sloLatency > 0 {
		objective := cfg.sloObjective
		if objective <= 0 || objective >= 1 {
			objective = 0.99
		}
		window := cfg.sloWindow
		if window <= 0 {
			window = 5 * time.Minute
		}
		tracker = slo.New(slo.Config{
			Objective:        objective,
			LatencyThreshold: cfg.sloLatency,
			Windows:          []time.Duration{window, 12 * window},
		}, reg)
	}

	var tlog *obs.TraceLog
	var sampler *obs.Sampler
	if cfg.traceLogPath != "" {
		w, closeTrace, err := openLogSink(cfg.traceLogPath, 0, 0)
		if err != nil {
			return fail(err)
		}
		defer closeTrace()
		tlog = obs.NewTraceLog(w, reg)
		rate := cfg.traceSample
		if rate <= 0 {
			rate = 0.01
		}
		sampler = obs.NewSampler(rate, cfg.opts.Seed)
	}

	watcher := profwatch.Start(profwatch.Config{
		Hist:      reg.Histogram("semsim_query_seconds", "", nil),
		Threshold: cfg.profileP99,
		Interval:  cfg.profileInterval,
		Cooldown:  cfg.profileCooldown,
		RingSize:  cfg.profileRing,
	}, reg)
	defer watcher.Stop()

	registerBuildInfo(reg, idx)

	// Warm-up traffic: populates the query histogram, the pruning
	// counters and the SLING cache so the first scrape is non-empty.
	n := g.NumNodes()
	for i := 0; i < cfg.warmup && n > 1; i++ {
		u := semsim.NodeID(i % n)
		v := semsim.NodeID((i + 1) % n)
		idx.Query(u, v)
	}
	if n > 1 {
		idx.TopK(0, 5)
	}
	fmt.Fprint(logw, tr.String())
	// Collect the build's scratch before serving. A cycle that ran
	// mid-build, while that scratch was live, would otherwise set the
	// heap goal, and with it the serving peak RSS, at twice that
	// transient live set.
	runtime.GC()

	reg.PublishExpvar("semsim")
	so := newServeObs(reg, qlog, tlog, sampler, tracker, watcher)
	handler.Store(newServeMux(idx, so))

	fmt.Fprintf(logw, "semsim: serving on http://%s (backend %s, metrics at /metrics, expvar at /debug/vars, pprof at /debug/pprof/)\n",
		l.Addr(), idx.Backend())
	if ready != nil {
		ready <- l.Addr().String()
	}

	// Graceful shutdown: a stop signal closes the listener, drains
	// in-flight requests for up to shutdownTimeout, then logs the final
	// metrics snapshot so the last scrape interval is never lost.
	stop := cfg.stop
	if stop == nil {
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer cancel()
		stop = ctx.Done()
	}
	select {
	case err := <-errc:
		return err
	case <-stop:
	}
	timeout := cfg.shutdownTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	fmt.Fprintf(logw, "semsim: shutdown signal received, draining for up to %s\n", timeout)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	shutdownErr := srv.Shutdown(ctx)
	idx.Close() // drain pending shadow verifications before the final snapshot
	logFinalSnapshot(logw, idx)
	return shutdownErr
}

// warmingMux is the pre-readiness handler: every route answers 503 so
// probes, scrapes and eager clients all learn the same thing — the
// process is alive but the index is not ready to serve.
func warmingMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "warming"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSONError(w, http.StatusServiceUnavailable, "index building, not ready")
	})
	return mux
}

// openLogSink resolves an NDJSON log destination: "-" streams to
// stdout, anything else appends to the named file — through a
// size-rotating writer when maxBytes > 0, keeping maxGens rotated
// generations (values < 1 mean the historical single .1).
func openLogSink(path string, maxBytes int64, maxGens int) (io.Writer, func(), error) {
	if path == "-" {
		return os.Stdout, func() {}, nil
	}
	if maxBytes > 0 {
		rf, err := quality.OpenRotatingFileGens(path, maxBytes, maxGens)
		if err != nil {
			return nil, nil, fmt.Errorf("semsim: open log sink: %w", err)
		}
		return rf, func() { rf.Close() }, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("semsim: open log sink: %w", err)
	}
	return f, func() { f.Close() }, nil
}

// registerBuildInfo exports the constant-1 semsim_build_info gauge whose
// labels identify this process's serving configuration, so scrape-side
// dashboards can correlate latency shifts with config changes.
func registerBuildInfo(reg *semsim.Metrics, idx *semsim.Index) {
	kernel := idx.KernelMode()
	if kernel == "" {
		kernel = "none"
	}
	residency := "resident"
	if idx.LazyWalks() {
		residency = "lazy"
	}
	reg.GaugeFunc(obs.SeriesName("semsim_build_info",
		"backend", idx.Backend(),
		"kernel", kernel,
		"walk_format", strconv.Itoa(walk.FormatVersion),
		"walk_residency", residency,
		"go", runtime.Version()),
		"Serving configuration identity (constant 1; the labels carry the information).",
		func() float64 { return 1 })
}

// writeDiagBundle streams the diagnostics tar.gz: one archive holding
// every observability surface a live incident review needs, captured at
// a single instant — the Prometheus exposition, expvar state, the
// flight-recorder dump, the retained trace records, the anomaly-profile
// ring index, SLO burn rates, heavy hitters and the serving identity.
// Entries are rendered to memory first (tar needs sizes up front); all
// of them are bounded rings or snapshots, so the bundle stays small.
func writeDiagBundle(w io.Writer, idx *semsim.Index, so *serveObs) error {
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	now := time.Now()
	add := func(name string, data []byte) error {
		if err := tw.WriteHeader(&tar.Header{
			Name: name, Mode: 0o644, Size: int64(len(data)), ModTime: now,
		}); err != nil {
			return err
		}
		_, err := tw.Write(data)
		return err
	}
	asJSON := func(v any) []byte {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			data, _ = json.Marshal(map[string]string{"error": err.Error()})
		}
		return append(data, '\n')
	}

	var prom bytes.Buffer
	so.reg.WriteText(&prom)

	var ev bytes.Buffer
	ev.WriteString("{")
	first := true
	expvar.Do(func(kv expvar.KeyValue) {
		if !first {
			ev.WriteString(",")
		}
		first = false
		fmt.Fprintf(&ev, "%q:%s", kv.Key, kv.Value.String())
	})
	ev.WriteString("}\n")

	var fl bytes.Buffer
	so.flightRing.Dump(&fl)

	var traces bytes.Buffer
	for _, rec := range so.traceSnapshot() {
		if line, err := json.Marshal(rec); err == nil {
			traces.Write(line)
			traces.WriteByte('\n')
		}
	}

	kernel := idx.KernelMode()
	if kernel == "" {
		kernel = "none"
	}
	residency := "resident"
	if idx.LazyWalks() {
		residency = "lazy"
	}
	buildinfo := map[string]any{
		"time":           now,
		"backend":        idx.Backend(),
		"kernel":         kernel,
		"walk_format":    walk.FormatVersion,
		"walk_residency": residency,
		"epoch":          idx.Epoch(),
		"nodes":          idx.Graph().NumNodes(),
		"go":             runtime.Version(),
	}

	entries := []struct {
		name string
		data []byte
	}{
		{"metrics.prom", prom.Bytes()},
		{"expvar.json", ev.Bytes()},
		{"flight.ndjson", fl.Bytes()},
		{"traces.ndjson", traces.Bytes()},
		{"profiles.json", asJSON(map[string]any{"captures": so.watcher.Captures()})},
		{"slo.json", asJSON(so.slo.Snapshot())},
		{"heavy.json", asJSON(map[string]any{
			"capacity": heavyCapacity,
			"tracked":  so.heavy.Len(),
			"top":      so.heavy.Top(heavyCapacity),
		})},
		{"buildinfo.json", asJSON(buildinfo)},
	}
	for _, e := range entries {
		if err := add(e.name, e.data); err != nil {
			return err
		}
	}
	if err := tw.Close(); err != nil {
		return err
	}
	return gz.Close()
}

// logFinalSnapshot writes a one-line summary plus the full structured
// metrics snapshot, so the traffic served since the last scrape is
// preserved in the process log.
func logFinalSnapshot(w io.Writer, idx *semsim.Index) {
	snap := idx.Snapshot()
	cache := idx.CacheSummary()
	fmt.Fprintf(w, "semsim: final snapshot: %d queries, %d top-k searches, cache %.0f%% hits (%d entries)\n",
		snap.Counters["semsim_queries_total"],
		snap.Counters["semsim_topk_total"],
		100*cache.HitRatio, cache.Entries)
	if data, err := json.Marshal(snap); err == nil {
		fmt.Fprintf(w, "semsim: final metrics snapshot: %s\n", data)
	}
}

// writeJSONError replies with the structured error shape every endpoint
// shares: {"error": "..."} under the given status code.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// errorStatus maps an index error to its HTTP status: engine bounds
// errors (unknown node) are the client's fault, everything else is
// ours.
func errorStatus(err error) int {
	if errors.Is(err, semsim.ErrNodeOutOfRange) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// mutateOp is the wire shape of one /mutate batch entry; Op selects
// which of the remaining fields apply.
type mutateOp struct {
	Op      string  `json:"op"`
	From    string  `json:"from,omitempty"`
	To      string  `json:"to,omitempty"`
	Label   string  `json:"label,omitempty"`
	Weight  float64 `json:"weight,omitempty"`
	Name    string  `json:"name,omitempty"`
	Concept string  `json:"concept,omitempty"`
	Freq    float64 `json:"freq,omitempty"`
}

// maxMutateBody bounds a /mutate request body; far above any sane
// batch, low enough that a runaway client cannot balloon the heap.
const maxMutateBody = 4 << 20

// requestIDHeader carries the request ID in both directions: a caller
// may supply one (gateway-assigned, or the parent's in a future sharded
// scatter-gather) and serve always echoes the effective ID back.
const requestIDHeader = "X-Semsim-Request"

// serveObs bundles the per-request observability sinks the API handlers
// share. Every field except reg may be nil (the corresponding feature
// is off); the wrap path is nil-safe throughout, per the obs
// convention.
type serveObs struct {
	reg      *semsim.Metrics
	qlog     *quality.QueryLog
	tracelog *obs.TraceLog
	sampler  *obs.Sampler
	slo      *slo.Tracker
	watcher  *profwatch.Watcher

	httpHist *obs.Histogram
	reqTotal map[string]*obs.Counter

	// costHists turns each request's Cost into the per-request
	// semsim_query_cost_* histograms; heavy tracks the most expensive
	// source nodes by cumulative Cost.Work (served at /debug/heavy);
	// flightRing is the always-on flight recorder (served at
	// /debug/flight and bundled by /debug/diag).
	costHists  *obs.CostHists
	heavy      *obs.HeavyHitters
	flightRing *flight.Ring

	// recentTraces is a small ring of the latest exported trace records
	// kept in memory for the diagnostics bundle, so traces are available
	// even when no -trace-log file is configured.
	traceMu      sync.Mutex
	recentTraces []obs.TraceRecord
	traceNext    int
	traceCount   int

	idBase string
	idSeq  atomic.Uint64
}

// flightRingSize is the flight recorder's capacity: at 1000 qps it holds
// the last ~4 seconds of traffic, at 10 qps the last ~7 minutes — enough
// to see what led up to an incident without unbounded memory.
const flightRingSize = 4096

// heavyCapacity bounds the heavy-hitters sketch (distinct tracked keys).
const heavyCapacity = 64

// recentTraceCap bounds the in-memory trace ring bundled by /debug/diag.
const recentTraceCap = 256

// newServeObs registers the HTTP-layer series and draws the random
// request-ID prefix that makes IDs from different processes distinct.
func newServeObs(reg *semsim.Metrics, qlog *quality.QueryLog, tlog *obs.TraceLog,
	sampler *obs.Sampler, tracker *slo.Tracker, watcher *profwatch.Watcher) *serveObs {
	so := &serveObs{
		reg: reg, qlog: qlog, tracelog: tlog, sampler: sampler,
		slo: tracker, watcher: watcher,
		httpHist: reg.Histogram("semsim_http_request_seconds",
			"End-to-end HTTP latency of the query API endpoints.", nil),
		reqTotal:   map[string]*obs.Counter{},
		costHists:  obs.NewCostHists(reg),
		heavy:      obs.NewHeavyHitters(heavyCapacity, reg),
		flightRing: flight.New(flightRingSize),
	}
	for _, ep := range []string{"/query", "/explain", "/topk", "/mutate"} {
		so.reqTotal[ep] = reg.Counter(
			obs.SeriesName("semsim_http_requests_total", "endpoint", ep),
			"HTTP requests served, by API endpoint.")
	}
	var b [4]byte
	if _, err := crand.Read(b[:]); err == nil {
		so.idBase = hex.EncodeToString(b[:])
	} else {
		so.idBase = "semsim"
	}
	return so
}

// reqInfo is the per-request context the wrap layer threads through a
// handler: the effective request ID, the sampled trace (nil when this
// request is not sampled) and the response status for SLO error
// classification.
type reqInfo struct {
	id     string
	trace  *semsim.Trace
	status int

	// cost is the request's cost accounting, filled by handlers that run
	// the query through a costed entry point; costed marks it live (so a
	// zero-cost request is still observed). costKey is the heavy-hitters
	// attribution key (the source node name); epoch and strategy annotate
	// the flight record.
	cost     semsim.Cost
	costed   bool
	costKey  string
	epoch    uint64
	strategy string
}

// fail records the status and writes the shared JSON error shape.
func (ri *reqInfo) fail(w http.ResponseWriter, status int, msg string) {
	ri.status = status
	writeJSONError(w, status, msg)
}

// requestID returns the caller-supplied ID when it is well-formed, or
// mints process-prefix-NNNNNN.
func (so *serveObs) requestID(r *http.Request) string {
	if id := sanitizeRequestID(r.Header.Get(requestIDHeader)); id != "" {
		return id
	}
	return fmt.Sprintf("%s-%06d", so.idBase, so.idSeq.Add(1))
}

// sanitizeRequestID accepts IDs of 1..64 chars drawn from
// [A-Za-z0-9._-]; anything else returns "" (a fresh ID is minted).
// Restricting the alphabet keeps IDs safe to echo into headers, NDJSON
// logs and shell pipelines without escaping.
func sanitizeRequestID(s string) string {
	if s == "" || len(s) > 64 {
		return ""
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return s
}

// wrap is the request-instrumentation middleware for the API endpoints:
// assigns and echoes the request ID, samples a trace, measures
// end-to-end latency into the HTTP histogram and the SLO tracker, and
// exports the sampled trace once the handler returns. The disabled
// state costs a few nil checks per request.
func (so *serveObs) wrap(endpoint string, h func(http.ResponseWriter, *http.Request, *reqInfo)) http.HandlerFunc {
	ctr := so.reqTotal[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		ri := &reqInfo{id: so.requestID(r), status: http.StatusOK}
		w.Header().Set(requestIDHeader, ri.id)
		if so.sampler.Sample() {
			ri.trace = semsim.NewTrace(endpoint)
		}
		h(w, r, ri)
		lat := time.Since(t0)
		ctr.Inc()
		so.httpHist.ObserveDuration(lat)
		so.slo.Observe(lat, ri.status >= 500)
		if ri.costed {
			so.costHists.Observe(&ri.cost)
			so.heavy.Observe(ri.costKey, ri.cost.Work())
		}
		so.flightRing.Record(flight.Record{
			TimeNS:    t0.UnixNano(),
			Endpoint:  endpoint,
			RequestID: ri.id,
			Epoch:     ri.epoch,
			Strategy:  ri.strategy,
			Status:    ri.status,
			ErrClass:  flight.ClassifyStatus(ri.status),
			LatencyNS: int64(lat),
			Cost:      ri.cost,
		})
		if ri.trace != nil {
			rec := ri.trace.Export()
			rec.Time = time.Now()
			rec.RequestID = ri.id
			so.tracelog.Log(rec)
			so.keepTrace(rec)
		}
	}
}

// keepTrace retains rec in the fixed-size in-memory ring the diag bundle
// reads, independent of whether a trace log file is configured.
func (so *serveObs) keepTrace(rec obs.TraceRecord) {
	so.traceMu.Lock()
	if so.recentTraces == nil {
		so.recentTraces = make([]obs.TraceRecord, recentTraceCap)
	}
	so.recentTraces[so.traceNext] = rec
	so.traceNext = (so.traceNext + 1) % recentTraceCap
	if so.traceCount < recentTraceCap {
		so.traceCount++
	}
	so.traceMu.Unlock()
}

// traceSnapshot copies the retained trace records oldest-first.
func (so *serveObs) traceSnapshot() []obs.TraceRecord {
	so.traceMu.Lock()
	defer so.traceMu.Unlock()
	out := make([]obs.TraceRecord, 0, so.traceCount)
	start := so.traceNext - so.traceCount
	for i := 0; i < so.traceCount; i++ {
		out = append(out, so.recentTraces[(start+i+recentTraceCap)%recentTraceCap])
	}
	return out
}

// newServeMux mounts the query API and the debug surfaces. Handlers
// resolve the graph and measure from the index per request rather than
// capturing the build-time objects: /mutate advances the epoch, and
// name resolution must see nodes added since startup.
func newServeMux(idx *semsim.Index, so *serveObs) *http.ServeMux {
	mux := http.NewServeMux()
	reg, qlog := so.reg, so.qlog

	node := func(w http.ResponseWriter, r *http.Request, g *semsim.Graph, param string, ri *reqInfo) (semsim.NodeID, bool) {
		name := r.URL.Query().Get(param)
		if name == "" {
			ri.fail(w, http.StatusBadRequest, "missing ?"+param+"=NODE")
			return 0, false
		}
		id, ok := g.NodeByName(name)
		if !ok {
			ri.fail(w, http.StatusNotFound, "unknown node "+name)
			return 0, false
		}
		return id, true
	}
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	}

	mux.HandleFunc("/query", so.wrap("/query", func(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
		t0 := time.Now()
		g := idx.Graph()
		sp := ri.trace.Start("resolve")
		u, ok := node(w, r, g, "u", ri)
		if !ok {
			return
		}
		v, ok := node(w, r, g, "v", ri)
		sp.End()
		if !ok {
			return
		}
		sp = ri.trace.Start("score")
		score := idx.QueryCost(u, v, &ri.cost)
		semScore := idx.Sem().Sim(u, v)
		simrank := idx.SimRankQuery(u, v)
		sp.End()
		ri.costed, ri.costKey, ri.epoch = true, g.NodeName(u), idx.Epoch()
		sp = ri.trace.Start("encode")
		writeJSON(w, map[string]any{
			"u":       g.NodeName(u),
			"v":       g.NodeName(v),
			"sem":     semScore,
			"semsim":  score,
			"simrank": simrank,
			"cost":    &ri.cost,
		})
		sp.End()
		if qlog != nil {
			qlog.Log(quality.QueryEvent{
				RequestID: ri.id,
				Endpoint:  "/query", U: g.NodeName(u), V: g.NodeName(v),
				Status: http.StatusOK, Score: score,
				LatencySeconds: time.Since(t0).Seconds(),
				Backend:        idx.Backend(),
				CacheHitRatio:  idx.CacheSummary().HitRatio,
				Cost:           &ri.cost,
			})
		}
	}))

	mux.HandleFunc("/explain", so.wrap("/explain", func(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
		t0 := time.Now()
		g := idx.Graph()
		sp := ri.trace.Start("resolve")
		u, ok := node(w, r, g, "u", ri)
		if !ok {
			return
		}
		v, ok := node(w, r, g, "v", ri)
		sp.End()
		if !ok {
			return
		}
		sp = ri.trace.Start("explain")
		ex, err := idx.ExplainQuery(u, v)
		sp.End()
		if err != nil {
			ri.fail(w, errorStatus(err), err.Error())
			return
		}
		ex.UName, ex.VName = g.NodeName(u), g.NodeName(v)
		ri.cost, ri.costed, ri.costKey, ri.epoch = ex.Cost, true, ex.UName, idx.Epoch()
		sp = ri.trace.Start("encode")
		writeJSON(w, ex)
		sp.End()
		if qlog != nil {
			qlog.Log(quality.QueryEvent{
				RequestID: ri.id,
				Endpoint:  "/explain", U: ex.UName, V: ex.VName,
				Status: http.StatusOK, Score: ex.Score,
				LatencySeconds: time.Since(t0).Seconds(),
				Backend:        ex.Backend,
				CIWidth:        ex.CIWidth(),
				CacheHitRatio:  idx.CacheSummary().HitRatio,
				Cost:           &ri.cost,
			})
		}
	}))

	mux.HandleFunc("/topk", so.wrap("/topk", func(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
		t0 := time.Now()
		g := idx.Graph()
		sp := ri.trace.Start("resolve")
		u, ok := node(w, r, g, "u", ri)
		sp.End()
		if !ok {
			return
		}
		k := 10
		if s := r.URL.Query().Get("k"); s != "" {
			var err error
			if k, err = strconv.Atoi(s); err != nil || k < 1 {
				ri.fail(w, http.StatusBadRequest, "bad ?k: want a positive integer")
				return
			}
		}
		type hit struct {
			Node  string  `json:"node"`
			Score float64 `json:"score"`
		}
		sp = ri.trace.Start("topk")
		results := idx.TopKCost(u, k, &ri.cost)
		sp.End()
		ri.costed, ri.costKey = true, g.NodeName(u)
		ri.epoch, ri.strategy = idx.Epoch(), idx.PlanStrategy(k)
		hits := []hit{}
		for _, s := range results {
			hits = append(hits, hit{g.NodeName(s.Node), s.Score})
		}
		sp = ri.trace.Start("encode")
		writeJSON(w, map[string]any{"u": g.NodeName(u), "k": k, "results": hits, "cost": &ri.cost})
		sp.End()
		if qlog != nil {
			qlog.Log(quality.QueryEvent{
				RequestID: ri.id,
				Endpoint:  "/topk", U: g.NodeName(u), K: k,
				Status: http.StatusOK, Results: len(hits),
				LatencySeconds: time.Since(t0).Seconds(),
				Backend:        idx.Backend(),
				Strategy:       ri.strategy,
				CacheHitRatio:  idx.CacheSummary().HitRatio,
				Cost:           &ri.cost,
			})
		}
	}))

	// Mutation batches serialize on mutateMu: every request then commits
	// against the epoch it resolved names on, so the 409 path below is a
	// belt-and-suspenders guard, not a steady-state outcome.
	var mutateMu sync.Mutex
	mux.HandleFunc("/mutate", so.wrap("/mutate", func(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
		if r.Method != http.MethodPost {
			ri.fail(w, http.StatusMethodNotAllowed, "POST a JSON mutation batch")
			return
		}
		var req struct {
			Ops []mutateOp `json:"ops"`
		}
		if err := json.NewDecoder(io.LimitReader(r.Body, maxMutateBody)).Decode(&req); err != nil {
			ri.fail(w, http.StatusBadRequest, "bad mutation batch: "+err.Error())
			return
		}
		if len(req.Ops) == 0 {
			ri.fail(w, http.StatusBadRequest, "empty mutation batch")
			return
		}
		mutateMu.Lock()
		defer mutateMu.Unlock()
		sp := ri.trace.Start("stage")
		g := idx.Graph()
		m := idx.NewMutator()
		// Names minted by add_node ops resolve for later ops of the same
		// batch, so a node and its wiring commit together.
		minted := map[string]semsim.NodeID{}
		resolve := func(name string) (semsim.NodeID, bool) {
			if id, ok := minted[name]; ok {
				return id, true
			}
			return g.NodeByName(name)
		}
		for i, op := range req.Ops {
			switch op.Op {
			case "add_edge", "remove_edge":
				u, ok := resolve(op.From)
				if !ok {
					ri.fail(w, http.StatusNotFound, fmt.Sprintf("op %d: unknown node %q", i, op.From))
					return
				}
				v, ok := resolve(op.To)
				if !ok {
					ri.fail(w, http.StatusNotFound, fmt.Sprintf("op %d: unknown node %q", i, op.To))
					return
				}
				if op.Op == "add_edge" {
					weight := op.Weight
					if weight == 0 {
						weight = 1
					}
					m.AddEdge(u, v, op.Label, weight)
				} else {
					m.RemoveEdge(u, v, op.Label)
				}
			case "add_node":
				if op.Name == "" {
					ri.fail(w, http.StatusBadRequest, fmt.Sprintf("op %d: add_node needs a name", i))
					return
				}
				if id := m.AddNode(op.Name, op.Label); id >= 0 {
					minted[op.Name] = id
				}
			case "update_concept_freq":
				c, ok := resolve(op.Concept)
				if !ok {
					ri.fail(w, http.StatusNotFound, fmt.Sprintf("op %d: unknown concept %q", i, op.Concept))
					return
				}
				m.UpdateConceptFreq(c, op.Freq)
			default:
				ri.fail(w, http.StatusBadRequest, fmt.Sprintf("op %d: unknown op %q", i, op.Op))
				return
			}
		}
		sp.End()
		sp = ri.trace.Start("commit")
		st, err := m.Commit()
		sp.End()
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, semsim.ErrStaleMutator) {
				status = http.StatusConflict
			}
			ri.fail(w, status, err.Error())
			return
		}
		ri.epoch = st.Epoch
		writeJSON(w, map[string]any{
			"epoch":           st.Epoch,
			"ops":             st.Ops,
			"resampled_walks": st.ResampledWalks,
			"new_nodes":       st.NewNodes,
		})
	}))

	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, idx.Snapshot())
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteText(w)
	})

	mux.Handle("/debug/vars", expvar.Handler())

	// net/http/pprof self-registers only on the default mux; mount its
	// handlers on ours explicitly. pprof.Index routes the named
	// profiles (heap, goroutine, block, mutex, ...) itself.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	// The anomaly-capture ring; a nil watcher serves an empty index.
	profiles := so.watcher.Handler("/debug/profiles")
	mux.Handle("/debug/profiles", profiles)
	mux.Handle("/debug/profiles/", profiles)

	// The flight recorder: the last flightRingSize wide events (queries
	// and mutation commits) as NDJSON, oldest first.
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		so.flightRing.Dump(w)
	})

	// The heavy-hitters sketch: the most expensive source nodes by
	// cumulative cost (?n= bounds the list, default 20).
	mux.HandleFunc("/debug/heavy", func(w http.ResponseWriter, r *http.Request) {
		n := 20
		if s := r.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				n = v
			}
		}
		writeJSON(w, map[string]any{
			"capacity": heavyCapacity,
			"tracked":  so.heavy.Len(),
			"top":      so.heavy.Top(n),
		})
	})

	// The one-shot diagnostics bundle: everything an incident review
	// needs in a single tar.gz download.
	mux.HandleFunc("/debug/diag", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/gzip")
		w.Header().Set("Content-Disposition", `attachment; filename="semsim-diag.tar.gz"`)
		if err := writeDiagBundle(w, idx, so); err != nil {
			// Headers are gone; all we can do is drop the connection
			// so the client sees a truncated archive, not a clean EOF.
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
				}
			}
		}
	})

	// Readiness: this mux only ever serves after build+warmup, so a 200
	// here means the index answers queries.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})

	return mux
}
