package main

// Smoke test for the serve subcommand, run by ci.sh tier 1: starts the
// real serve path (index build, warm-up, listener, mux) on an ephemeral
// port, scrapes /metrics, /debug/vars and /debug/pprof/, and asserts the
// core series are populated.

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"semsim"
)

// smokeGraph builds a small two-community co-authorship network with a
// taxonomy, enough for nonzero similarities and cache traffic.
func smokeGraph(t testing.TB) (*semsim.Graph, semsim.Measure) {
	t.Helper()
	b := semsim.NewGraphBuilder()
	field := b.AddNode("Field", "category")
	db := b.AddNode("Databases", "field")
	ml := b.AddNode("MachineLearning", "field")
	cat := b.AddNode("Author", "category")
	isa := func(c, p semsim.NodeID) {
		b.AddEdge(c, p, "is-a", 1)
		b.AddEdge(p, c, "has-instance", 1)
	}
	isa(db, field)
	isa(ml, field)
	names := []string{"ada", "ben", "cho", "dee", "eve", "fay"}
	authors := make([]semsim.NodeID, len(names))
	for i, n := range names {
		authors[i] = b.AddNode(n, "author")
		isa(authors[i], cat)
		topic := db
		if i >= 3 {
			topic = ml
		}
		b.AddUndirected(authors[i], topic, "interest", 2)
	}
	for i := 1; i < len(authors); i++ {
		b.AddUndirected(authors[i-1], authors[i], "co-author", 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tax, err := semsim.BuildTaxonomy(g, semsim.TaxonomyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g, semsim.NewLin(tax)
}

func TestServeSmoke(t *testing.T) {
	g, lin := smokeGraph(t)
	stop := make(chan struct{})
	var logbuf bytes.Buffer
	cfg := serveConfig{
		debugAddr: "127.0.0.1:0",
		warmup:    8,
		opts: semsim.IndexOptions{
			NumWalks: 80, WalkLength: 8, C: 0.6, Theta: 0.05,
			SLINGCutoff: 0.1, Seed: 1,
		},
		stop: stop,
		logw: &logbuf,
	}
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- runServe(g, lin, cfg, ready) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("serve exited before binding: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not come up within 30s")
	}
	base := "http://" + addr

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	// A live query on top of the warm-up so every series is exercised.
	q := get("/query?u=ada&v=ben")
	var qr map[string]any
	if err := json.Unmarshal([]byte(q), &qr); err != nil {
		t.Fatalf("/query returned invalid JSON: %v\n%s", err, q)
	}
	if _, ok := qr["semsim"]; !ok {
		t.Fatalf("/query response missing semsim score: %s", q)
	}
	get("/topk?u=ada&k=3")

	metrics := get("/metrics")
	for _, series := range []string{
		"semsim_build_seconds_count",
		"semsim_walk_build_seconds_count",
		"semsim_queries_total",
		"semsim_query_seconds_bucket",
		"semsim_query_seconds_count",
		"semsim_topk_seconds_count",
		"semsim_cache_hit_ratio",
		"semsim_cache_hits_total",
		"semsim_theta_sem_skips_total",
		"semsim_theta_walk_caps_total",
		"semsim_walks_coupled_total",
		"semsim_build_backend_seconds_count",
		`semsim_plan_total{strategy="brute"}`,
		`semsim_plan_total{strategy="sem-bounded"}`,
		`semsim_plan_total{strategy="collision"}`,
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics missing core series %s", series)
		}
	}
	// Populated, not just present: the warm-up queries must have been
	// timed and the cache probed.
	for _, zero := range []string{"semsim_queries_total 0\n", "semsim_query_seconds_count 0\n"} {
		if strings.Contains(metrics, zero) {
			t.Errorf("/metrics series unexpectedly zero after warm-up: %s", strings.TrimSpace(zero))
		}
	}
	// The labeled plan counters share one metric family: exactly one
	// TYPE header, and at least one strategy chosen by the warm-up top-k.
	if n := strings.Count(metrics, "# TYPE semsim_plan_total counter"); n != 1 {
		t.Errorf("want exactly one TYPE header for semsim_plan_total, got %d", n)
	}
	planned := false
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "semsim_plan_total{") && !strings.HasSuffix(line, " 0") {
			planned = true
		}
	}
	if !planned {
		t.Error("/metrics shows no planner decisions after warm-up top-k traffic")
	}

	vars := get("/debug/vars")
	var ev map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &ev); err != nil {
		t.Fatalf("/debug/vars invalid JSON: %v", err)
	}
	if _, ok := ev["semsim"]; !ok {
		t.Error("/debug/vars missing the published semsim registry")
	}

	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ index does not list profiles")
	}
	get("/debug/pprof/goroutine?debug=1")

	snap := get("/snapshot")
	var s semsim.MetricsSnapshot
	if err := json.Unmarshal([]byte(snap), &s); err != nil {
		t.Fatalf("/snapshot invalid JSON: %v", err)
	}
	if s.Counters["semsim_queries_total"] == 0 {
		t.Error("/snapshot reports zero queries after warm-up traffic")
	}
	if h, ok := s.Histograms["semsim_query_seconds"]; !ok || h.Count == 0 {
		t.Error("/snapshot query latency histogram empty")
	}
	var planTotal int64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "semsim_plan_total{") {
			planTotal += v
		}
	}
	if planTotal == 0 {
		t.Error("/snapshot shows no planner strategy decisions")
	}

	// Graceful shutdown: closing the stop channel must drain and return
	// nil, logging a final snapshot of the traffic served.
	close(stop)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("graceful shutdown returned error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not shut down within 30s of stop")
	}
	log := logbuf.String()
	if !strings.Contains(log, "final metrics snapshot") {
		t.Errorf("shutdown log missing final metrics snapshot:\n%s", log)
	}
}

// TestServeGracefulShutdown drives the stop path end to end: traffic is
// served, the stop signal arrives, the server drains and returns nil,
// and the log carries the drain notice plus the final snapshot with the
// served traffic accounted for.
func TestServeGracefulShutdown(t *testing.T) {
	g, lin := smokeGraph(t)
	stop := make(chan struct{})
	var logbuf bytes.Buffer
	cfg := serveConfig{
		debugAddr: "127.0.0.1:0",
		warmup:    2,
		opts: semsim.IndexOptions{
			NumWalks: 40, WalkLength: 6, C: 0.6, Theta: 0.05,
			SLINGCutoff: 0.1, Seed: 1,
		},
		stop:            stop,
		shutdownTimeout: 10 * time.Second,
		logw:            &logbuf,
	}
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- runServe(g, lin, cfg, ready) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("serve exited before binding: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not come up within 30s")
	}

	// Serve one real request, then signal shutdown.
	resp, err := http.Get("http://" + addr + "/query?u=ada&v=eve")
	if err != nil {
		t.Fatalf("query before shutdown: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query before shutdown: status %d", resp.StatusCode)
	}
	close(stop)

	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("graceful shutdown returned error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not shut down within 30s of stop")
	}
	log := logbuf.String()
	for _, want := range []string{"shutdown signal received", "final snapshot:", "final metrics snapshot"} {
		if !strings.Contains(log, want) {
			t.Errorf("shutdown log missing %q:\n%s", want, log)
		}
	}
}

// TestServeSlowHeaderDisconnected: a client that opens a connection and
// never finishes sending its request headers is disconnected once the
// read-header timeout passes, instead of holding the connection (and
// its goroutine) forever.
func TestServeSlowHeaderDisconnected(t *testing.T) {
	g, lin := smokeGraph(t)
	stop := make(chan struct{})
	cfg := serveConfig{
		debugAddr: "127.0.0.1:0",
		opts: semsim.IndexOptions{
			NumWalks: 20, WalkLength: 4, C: 0.6, Seed: 1,
		},
		healthInterval:    time.Hour,
		stop:              stop,
		readHeaderTimeout: 200 * time.Millisecond,
		logw:              io.Discard,
	}
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- runServe(g, lin, cfg, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("serve exited before binding: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not come up within 30s")
	}
	defer func() {
		close(stop)
		<-errc
	}()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request line and one header, but never the blank line that ends
	// the header block.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	conn.SetReadDeadline(t0.Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection not closed by the server: %v", err)
	}
	if waited := time.Since(t0); waited > 5*time.Second {
		t.Errorf("server held the half-sent request for %v", waited)
	}
}

// TestServeMutate drives the dynamic-graph surface end to end: a POST
// /mutate batch (new node, wiring edges, an edge removal, a concept
// reweight) commits one epoch, the new node becomes queryable by name,
// the epoch gauge and commit metrics advance, and malformed batches map
// to the documented status codes.
func TestServeMutate(t *testing.T) {
	g, lin := smokeGraph(t)
	stop := make(chan struct{})
	defer close(stop)
	var logbuf bytes.Buffer
	cfg := serveConfig{
		debugAddr: "127.0.0.1:0",
		warmup:    2,
		opts: semsim.IndexOptions{
			NumWalks: 80, WalkLength: 8, C: 0.6, Theta: 0.05,
			SLINGCutoff: 0.1, Seed: 1,
		},
		stop: stop,
		logw: &logbuf,
	}
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- runServe(g, lin, cfg, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("serve exited before binding: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not come up within 30s")
	}
	base := "http://" + addr

	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(base+"/mutate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /mutate: %v", err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("POST /mutate: invalid JSON response %q: %v", raw, err)
		}
		return resp.StatusCode, m
	}

	// Before the mutation the new node must be unknown.
	if resp, err := http.Get(base + "/query?u=gil&v=ada"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("pre-mutation query for gil: status %d, want 404", resp.StatusCode)
		}
	}

	status, m := post(`{"ops": [
		{"op": "add_node", "name": "gil", "label": "author"},
		{"op": "add_edge", "from": "gil", "to": "ada", "label": "co-author", "weight": 1},
		{"op": "add_edge", "from": "ada", "to": "gil", "label": "co-author", "weight": 1},
		{"op": "remove_edge", "from": "ada", "to": "ben", "label": "co-author"},
		{"op": "update_concept_freq", "concept": "Databases", "freq": 0.5}
	]}`)
	if status != http.StatusOK {
		t.Fatalf("POST /mutate: status %d: %v", status, m)
	}
	if m["epoch"] != float64(1) || m["new_nodes"] != float64(1) {
		t.Fatalf("unexpected commit stats: %v", m)
	}

	// The committed node answers queries by name on the new epoch.
	resp, err := http.Get(base + "/query?u=gil&v=ada")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-mutation query for gil: status %d: %s", resp.StatusCode, raw)
	}
	var qr map[string]any
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatalf("query response: %v", err)
	}
	if _, ok := qr["semsim"].(float64); !ok {
		t.Fatalf("query response missing score: %s", raw)
	}

	// A second batch advances the epoch again.
	if status, m = post(`{"ops": [{"op": "add_edge", "from": "gil", "to": "ben", "label": "co-author"}]}`); status != http.StatusOK || m["epoch"] != float64(2) {
		t.Fatalf("second batch: status %d stats %v", status, m)
	}

	// Error mapping: unknown node 404, unknown op / empty batch 400,
	// non-POST 405.
	if status, _ = post(`{"ops": [{"op": "add_edge", "from": "nobody", "to": "ada", "label": "x"}]}`); status != http.StatusNotFound {
		t.Errorf("unknown node: status %d, want 404", status)
	}
	if status, _ = post(`{"ops": [{"op": "frobnicate"}]}`); status != http.StatusBadRequest {
		t.Errorf("unknown op: status %d, want 400", status)
	}
	if status, _ = post(`{"ops": []}`); status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", status)
	}
	resp, err = http.Get(base + "/mutate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /mutate: status %d, want 405", resp.StatusCode)
	}

	// The mutation surface is on the metrics page: epoch gauge at 2,
	// commit counters moving, repair cost accounted.
	metrics := func() string {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}()
	for _, want := range []string{
		"semsim_mutator_epoch 2",
		"semsim_commit_total 2",
		"semsim_commit_seconds_count 2",
		`semsim_http_requests_total{endpoint="/mutate"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s after mutations", want)
		}
	}
	if strings.Contains(metrics, "semsim_commit_walks_resampled_total 0\n") {
		t.Error("commit resampled no walks despite touching connected nodes")
	}
}
