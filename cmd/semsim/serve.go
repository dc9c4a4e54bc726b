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
// Every JSON response is one compact line. Errors are structured JSON
// ({"error": "..."}) with meaningful status codes: 400 for malformed
// parameters, 404 for unknown nodes (including engine bounds errors),
// 500 otherwise; a handler panic is recovered as a 500, its stack
// logged.
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
// into the request's one wide event (flight.Record), so one ID follows a
// request across process boundaries. That event carries the request's
// identity, outcome, phase durations (resolve, score or commit, encode)
// and cost; the flight ring at /debug/flight keeps the latest 4096, and
// -query-log writes every one as a line.
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
// every API request's event is written as one JSON line, errors and
// /mutate included (-query-log-max-bytes adds size-based rotation,
// keeping -query-log-max-generations rotated files PATH.1..PATH.N). The
// serving-SLO layer is opt-in: -slo-latency sets the latency objective
// threshold and enables the multi-window burn-rate gauges
// (semsim_slo_*); -profile-p99 arms the anomaly profiler, which
// captures a CPU+heap pprof pair into /debug/profiles when the
// inter-poll p99 crosses the threshold.
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
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
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
	// queryLogPath, when non-empty, streams every API request's event
	// (flight.Record) as a JSON line to this file ("-" = stdout).
	// queryLogMaxBytes > 0 adds size-based rotation keeping
	// queryLogMaxGens rotated generations (PATH.1 newest; 0 or 1 keeps
	// the historical single .1).
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
	so := newServeObs(reg, qlog, tracker, watcher, logw)
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
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
		}{"warming"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSONError(w, http.StatusServiceUnavailable, "index building, not ready")
	})
	return mux
}

// openLogSink resolves the query log's destination: "-" streams to
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

// servingIdentity lists, as label pairs, the serving configuration that
// both the semsim_build_info labels and the diag bundle's
// buildinfo.json report, so the two cannot disagree.
func servingIdentity(idx *semsim.Index) []string {
	kernel := idx.KernelMode()
	if kernel == "" {
		kernel = "none"
	}
	residency := "resident"
	if idx.LazyWalks() {
		residency = "lazy"
	}
	return []string{
		"backend", idx.Backend(),
		"kernel", kernel,
		"walk_format", strconv.Itoa(walk.FormatVersion),
		"walk_residency", residency,
		"go", runtime.Version(),
	}
}

// registerBuildInfo exports the constant-1 semsim_build_info gauge whose
// labels identify this process's serving configuration, so scrape-side
// dashboards can correlate latency shifts with config changes.
func registerBuildInfo(reg *semsim.Metrics, idx *semsim.Index) {
	reg.GaugeFunc(obs.SeriesName("semsim_build_info", servingIdentity(idx)...),
		"Serving configuration identity (constant 1; the labels carry the information).",
		func() float64 { return 1 })
}

// writeDiagBundle streams the diagnostics tar.gz: one archive holding
// every observability surface a live incident review needs, captured at
// a single instant — the Prometheus exposition, expvar state, the
// flight-recorder dump, the anomaly-profile ring index, SLO burn rates,
// heavy hitters and the serving identity.
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

	p := idx.Pin() // the epoch and node count of one epoch
	buildinfo := map[string]any{
		"time":  now,
		"epoch": p.Epoch(),
		"nodes": p.Graph().NumNodes(),
	}
	id := servingIdentity(idx)
	for i := 0; i < len(id); i += 2 {
		buildinfo[id[i]] = id[i+1]
	}

	entries := []struct {
		name string
		data []byte
	}{
		{"metrics.prom", prom.Bytes()},
		{"expvar.json", ev.Bytes()},
		{"flight.ndjson", fl.Bytes()},
		{"profiles.json", asJSON(map[string]any{"captures": so.watcher.Captures()})},
		{"slo.json", asJSON(so.slo.Snapshot())},
		{"heavy.json", asJSON(so.heavyReport(heavyCapacity))},
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

// writeJSON replies with v as one line of compact JSON under the given
// status code: the encoding of every JSON response serve sends.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errorResponse is the structured error shape every endpoint shares.
type errorResponse struct {
	Error string `json:"error"`
}

// writeJSONError replies with {"error": msg} under the given status code.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{msg})
}

// queryResponse is the /query body: the pair's semantic similarity, its
// SemSim estimate, the plain SimRank estimate on the same walks, and
// what the SemSim estimate cost.
type queryResponse struct {
	U       string       `json:"u"`
	V       string       `json:"v"`
	Sem     float64      `json:"sem"`
	SemSim  float64      `json:"semsim"`
	SimRank float64      `json:"simrank"`
	Cost    *semsim.Cost `json:"cost"`
}

// topkResponse is the /topk body, its results by descending score.
type topkResponse struct {
	U       string       `json:"u"`
	K       int          `json:"k"`
	Results []topkHit    `json:"results"`
	Cost    *semsim.Cost `json:"cost"`
}

type topkHit struct {
	Node  string  `json:"node"`
	Score float64 `json:"score"`
}

// mutateResponse is the /mutate body: the epoch the batch published and
// what its repair did.
type mutateResponse struct {
	Epoch          uint64 `json:"epoch"`
	Ops            int    `json:"ops"`
	ResampledWalks int    `json:"resampled_walks"`
	NewNodes       int    `json:"new_nodes"`
}

// heavyResponse is the /debug/heavy body and the diag bundle's
// heavy.json: the most expensive source nodes by cumulative cost.
type heavyResponse struct {
	Capacity int              `json:"capacity"`
	Tracked  int              `json:"tracked"`
	Top      []obs.HeavyEntry `json:"top"`
}

// heavyReport lists the heavy-hitters sketch's n most expensive sources.
func (so *serveObs) heavyReport(n int) heavyResponse {
	return heavyResponse{Capacity: heavyCapacity, Tracked: so.heavy.Len(), Top: so.heavy.Top(n)}
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
// share. Every field except reg and logw may be nil (the corresponding
// feature is off); the wrap path is nil-safe throughout, per the obs
// convention.
type serveObs struct {
	reg     *semsim.Metrics
	qlog    *quality.QueryLog
	slo     *slo.Tracker
	watcher *profwatch.Watcher
	// logw is the serve log, which receives a recovered panic's value
	// and stack.
	logw io.Writer

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

	idBase string
	idSeq  atomic.Uint64
}

// flightRingSize is the flight recorder's capacity: at 1000 qps it holds
// the last ~4 seconds of traffic, at 10 qps the last ~7 minutes — enough
// to see what led up to an incident without unbounded memory.
const flightRingSize = 4096

// heavyCapacity bounds the heavy-hitters sketch (distinct tracked keys).
const heavyCapacity = 64

// newServeObs registers the HTTP-layer series and draws the random
// request-ID prefix that makes IDs from different processes distinct.
func newServeObs(reg *semsim.Metrics, qlog *quality.QueryLog, tracker *slo.Tracker,
	watcher *profwatch.Watcher, logw io.Writer) *serveObs {
	so := &serveObs{
		reg: reg, qlog: qlog, slo: tracker, watcher: watcher, logw: logw,
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

// reqInfo is a request's wide event while its handler runs: wrap stamps
// the identity, status and timing fields of the embedded record, and
// the handler fills in what it resolved, scored and encoded, stamping
// each phase with lap as it completes.
type reqInfo struct {
	flight.Record
	// costed marks Cost as the request's query work, so that a read
	// which cost nothing is still observed; the heavy-hitters sketch
	// keys it by U, the source node.
	costed bool
	// mark is the last phase boundary.
	mark time.Time
	// w is the handler's ResponseWriter; it notes whether the response
	// has started, which decides what a recovered panic can still send.
	w trackingWriter
}

// trackingWriter is an http.ResponseWriter that records whether the
// status line has gone out.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (tw *trackingWriter) WriteHeader(status int) {
	tw.wrote = true
	tw.ResponseWriter.WriteHeader(status)
}

func (tw *trackingWriter) Write(b []byte) (int, error) {
	tw.wrote = true
	return tw.ResponseWriter.Write(b)
}

// maxEventError bounds the error message an event keeps: the flight
// ring holds flightRingSize events, and a message can quote a
// client-sent name of any length.
const maxEventError = 256

// fail writes the shared JSON error shape and records the status and
// error in the event.
func (ri *reqInfo) fail(w http.ResponseWriter, status int, msg string) {
	writeJSONError(w, status, msg)
	ri.setError(status, msg)
}

// setError records a failed request's status and error in the event.
func (ri *reqInfo) setError(status int, msg string) {
	if len(msg) > maxEventError {
		// A copy, so that the event does not pin the whole message.
		msg = strings.Clone(msg[:maxEventError])
	}
	ri.Status, ri.Error = status, msg
}

// lap returns the nanoseconds since the last phase boundary and makes
// now the next one.
func (ri *reqInfo) lap() int64 {
	now := time.Now()
	d := now.Sub(ri.mark)
	ri.mark = now
	return int64(d)
}

// requestID returns the caller-supplied ID when it is well-formed, or
// mints process-prefix-NNNNNN: the sequence number zero-padded to at
// least six digits, the text of %s-%06d, assembled on the stack so that
// the one allocation is the string itself.
func (so *serveObs) requestID(r *http.Request) string {
	if id := sanitizeRequestID(r.Header.Get(requestIDHeader)); id != "" {
		return id
	}
	seq := so.idSeq.Add(1)
	var buf [48]byte
	b := append(append(buf[:0], so.idBase...), '-')
	for lim := uint64(100000); lim > seq; lim /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendUint(b, seq, 10))
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

// apiHandler serves one API request, filling in its event.
type apiHandler func(http.ResponseWriter, *http.Request, *reqInfo)

// wrap is the request-instrumentation middleware for the API endpoints.
// It assigns and echoes the request ID, runs the handler on the
// request's event, then observes that one event everywhere: the HTTP
// latency histogram, the SLO tracker, the cost histograms and the
// heavy-hitters sketch, the flight ring and, when one is open, the
// query log. With the optional sinks off they cost a nil check each.
// A handler panic is observed the same way, as a 500 (see run).
func (so *serveObs) wrap(endpoint string, h apiHandler) http.HandlerFunc {
	ctr := so.reqTotal[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		ri := &reqInfo{mark: t0, Record: flight.Record{
			TimeNS: t0.UnixNano(), Endpoint: endpoint,
			RequestID: so.requestID(r), Status: http.StatusOK,
		}}
		ri.w.ResponseWriter = w
		w.Header().Set(requestIDHeader, ri.RequestID)
		cut := so.run(h, r, ri)
		lat := time.Since(t0)
		ri.LatencyNS, ri.ErrClass = int64(lat), flight.ClassifyStatus(ri.Status)
		ctr.Inc()
		so.httpHist.ObserveDuration(lat)
		so.slo.Observe(lat, ri.Status >= 500)
		if ri.costed {
			so.costHists.Observe(&ri.Cost)
			so.heavy.Observe(ri.U, ri.Cost.Work())
		}
		so.flightRing.Record(&ri.Record)
		so.qlog.Log(&ri.Record)
		if cut {
			// Abort the response, so that the client cannot take a
			// body the panic cut short for a whole one.
			panic(http.ErrAbortHandler)
		}
	}
}

// run calls h and recovers a panic in it: the value and stack go to the
// serve log and the event fails with 500. When nothing has been written
// yet the client gets the shared JSON error shape; otherwise run
// reports the response as cut. A handler that aborts its response on
// purpose (http.ErrAbortHandler) is let go.
func (so *serveObs) run(h apiHandler, r *http.Request, ri *reqInfo) (cut bool) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if p == http.ErrAbortHandler {
			panic(p)
		}
		fmt.Fprintf(so.logw, "semsim: panic serving %s (request %s): %v\n%s", ri.Endpoint, ri.RequestID, p, debug.Stack())
		cut = ri.w.wrote
		if !cut {
			writeJSONError(&ri.w, http.StatusInternalServerError, "internal server error")
		}
		ri.setError(http.StatusInternalServerError, fmt.Sprint("panic: ", p))
	}()
	h(&ri.w, r, ri)
	return false
}

// newServeMux mounts the query API and the debug surfaces. Each API
// request pins one epoch of the index (Index.Pin) and answers entirely
// from it: /mutate advances the epoch, so name resolution must see
// nodes added since startup, and the request's event must name the
// epoch, backend and strategy that answered.
func newServeMux(idx *semsim.Index, so *serveObs) *http.ServeMux {
	mux := http.NewServeMux()
	reg := so.reg

	node := func(w http.ResponseWriter, q url.Values, g *semsim.Graph, param string, ri *reqInfo) (semsim.NodeID, bool) {
		name := q.Get(param)
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
	// pin pins the epoch a request answers from and stamps the request's
	// event with it and its backend.
	pin := func(ri *reqInfo) semsim.View {
		p := idx.Pin()
		ri.Epoch, ri.Backend = p.Epoch(), p.Backend()
		return p
	}
	// pair resolves a pair read's ?u= and ?v= on p's graph and stamps
	// the event with the names and the resolve phase.
	pair := func(w http.ResponseWriter, r *http.Request, p semsim.View, ri *reqInfo) (u, v semsim.NodeID, ok bool) {
		q, g := r.URL.Query(), p.Graph()
		if u, ok = node(w, q, g, "u", ri); !ok {
			return
		}
		if v, ok = node(w, q, g, "v", ri); !ok {
			return
		}
		ri.U, ri.V = g.NodeName(u), g.NodeName(v)
		ri.ResolveNS = ri.lap()
		return u, v, true
	}

	mux.HandleFunc("/query", so.wrap("/query", func(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
		p := pin(ri)
		u, v, ok := pair(w, r, p, ri)
		if !ok {
			return
		}
		ri.Score = p.QueryCost(u, v, &ri.Cost)
		resp := queryResponse{
			U: ri.U, V: ri.V,
			Sem: p.Sem().Sim(u, v), SemSim: ri.Score, SimRank: p.SimRankQuery(u, v),
			Cost: &ri.Cost,
		}
		ri.costed = true
		ri.ScoreNS = ri.lap()
		writeJSON(w, http.StatusOK, &resp)
		ri.EncodeNS = ri.lap()
	}))

	mux.HandleFunc("/explain", so.wrap("/explain", func(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
		p := pin(ri)
		u, v, ok := pair(w, r, p, ri)
		if !ok {
			return
		}
		ex, err := p.ExplainQuery(u, v)
		if err != nil {
			ri.fail(w, errorStatus(err), err.Error())
			return
		}
		ex.UName, ex.VName = ri.U, ri.V
		ri.Cost, ri.costed, ri.Score, ri.CIWidth = ex.Cost, true, ex.Score, ex.CIWidth()
		ri.ScoreNS = ri.lap()
		writeJSON(w, http.StatusOK, ex)
		ri.EncodeNS = ri.lap()
	}))

	mux.HandleFunc("/topk", so.wrap("/topk", func(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
		p := pin(ri)
		q, g := r.URL.Query(), p.Graph()
		u, ok := node(w, q, g, "u", ri)
		if !ok {
			return
		}
		k := 10
		if s := q.Get("k"); s != "" {
			var err error
			if k, err = strconv.Atoi(s); err != nil || k < 1 {
				ri.fail(w, http.StatusBadRequest, "bad ?k: want a positive integer")
				return
			}
		}
		ri.U, ri.K = g.NodeName(u), k
		ri.ResolveNS = ri.lap()
		results := p.TopKCost(u, k, &ri.Cost)
		ri.Strategy, ri.Results, ri.costed = p.PlanStrategy(k), len(results), true
		ri.ScoreNS = ri.lap()
		resp := topkResponse{U: ri.U, K: k, Results: make([]topkHit, len(results)), Cost: &ri.Cost}
		for i, s := range results {
			resp.Results[i] = topkHit{g.NodeName(s.Node), s.Score}
		}
		writeJSON(w, http.StatusOK, &resp)
		ri.EncodeNS = ri.lap()
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
		decodeNS := ri.lap()
		mutateMu.Lock()
		defer mutateMu.Unlock()
		ri.mark = time.Now() // the wait for the mutation lock is no phase's
		p := pin(ri)
		g, m := p.Graph(), p.NewMutator()
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
		ri.ResolveNS = decodeNS + ri.lap()
		st, err := m.Commit()
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, semsim.ErrStaleMutator) {
				status = http.StatusConflict
			}
			ri.fail(w, status, err.Error())
			return
		}
		ri.Epoch = st.Epoch
		ri.CommitNS = ri.lap()
		writeJSON(w, http.StatusOK, mutateResponse{
			Epoch: st.Epoch, Ops: st.Ops,
			ResampledWalks: st.ResampledWalks, NewNodes: st.NewNodes,
		})
		ri.EncodeNS = ri.lap()
	}))

	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, idx.Snapshot())
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
		writeJSON(w, http.StatusOK, so.heavyReport(n))
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
