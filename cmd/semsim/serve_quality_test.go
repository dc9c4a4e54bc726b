package main

// Tests for the estimate-quality surface of the serve subcommand:
// structured JSON errors, the /explain endpoint, and the quality
// telemetry (shadow verifier, runtime health, query log) in /metrics.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"semsim"
	"semsim/internal/obs/flight"
	"semsim/internal/obs/quality"
)

// newTestMux builds the real serve mux over a small index, without the
// listener/shutdown machinery, for direct handler tests.
func newTestMux(t *testing.T, qlog *quality.QueryLog) (*http.ServeMux, *semsim.Metrics) {
	t.Helper()
	mux, _, so := newTestServer(t, qlog)
	return mux, so.reg
}

// newTestServer is newTestMux that also returns the index the mux
// serves and its observability sinks.
func newTestServer(tb testing.TB, qlog *quality.QueryLog) (*http.ServeMux, *semsim.Index, *serveObs) {
	tb.Helper()
	g, lin := smokeGraph(tb)
	reg := semsim.NewMetrics()
	idx, err := semsim.BuildIndex(g, lin, semsim.IndexOptions{
		NumWalks: 60, WalkLength: 8, C: 0.6, Theta: 0.05,
		SLINGCutoff: 0.1, Seed: 7, Metrics: reg,
		MeetIndex: true, AutoPlan: true, // what runServe always enables
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { idx.Close() })
	so := newServeObs(reg, qlog, nil, nil, io.Discard)
	return newServeMux(idx, so), idx, so
}

// TestServeErrorShapes: every endpoint rejects bad input with the shared
// {"error": "..."} JSON shape and a meaningful status code.
func TestServeErrorShapes(t *testing.T) {
	mux, _ := newTestMux(t, nil)
	cases := []struct {
		name, path string
		status     int
		errSubstr  string
	}{
		{"query missing u", "/query?v=ben", http.StatusBadRequest, "missing ?u=NODE"},
		{"query missing v", "/query?u=ada", http.StatusBadRequest, "missing ?v=NODE"},
		{"query unknown u", "/query?u=nobody&v=ben", http.StatusNotFound, "unknown node nobody"},
		{"query unknown v", "/query?u=ada&v=nobody", http.StatusNotFound, "unknown node nobody"},
		{"explain missing u", "/explain?v=ben", http.StatusBadRequest, "missing ?u=NODE"},
		{"explain unknown v", "/explain?u=ada&v=ghost", http.StatusNotFound, "unknown node ghost"},
		{"topk missing u", "/topk", http.StatusBadRequest, "missing ?u=NODE"},
		{"topk bad k", "/topk?u=ada&k=banana", http.StatusBadRequest, "bad ?k"},
		{"topk negative k", "/topk?u=ada&k=-2", http.StatusBadRequest, "bad ?k"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := httptest.NewRecorder()
			mux.ServeHTTP(rr, httptest.NewRequest("GET", tc.path, nil))
			if rr.Code != tc.status {
				t.Fatalf("GET %s: status %d, want %d (body %s)", tc.path, rr.Code, tc.status, rr.Body)
			}
			if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("GET %s: Content-Type %q, want application/json", tc.path, ct)
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
				t.Fatalf("GET %s: error body is not JSON: %v\n%s", tc.path, err, rr.Body)
			}
			if !strings.Contains(body.Error, tc.errSubstr) {
				t.Errorf("GET %s: error %q does not mention %q", tc.path, body.Error, tc.errSubstr)
			}
		})
	}
}

// TestServeExplainEndpoint: /explain returns the evidence payload with a
// score identical to /query and a well-formed confidence interval.
func TestServeExplainEndpoint(t *testing.T) {
	mux, reg := newTestMux(t, nil)

	do := func(path string) map[string]any {
		t.Helper()
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, rr.Code, rr.Body)
		}
		var m map[string]any
		if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v", path, err)
		}
		return m
	}

	ex := do("/explain?u=ada&v=ben")
	q := do("/query?u=ada&v=ben")
	if ex["score"] != q["semsim"] {
		t.Errorf("/explain score %v != /query semsim %v", ex["score"], q["semsim"])
	}
	for _, key := range []string{"u_name", "v_name", "backend", "sem", "ci_low", "ci_high", "ci_confidence", "so_cache", "theta"} {
		if _, ok := ex[key]; !ok {
			t.Errorf("/explain payload missing %q: %v", key, ex)
		}
	}
	if ex["u_name"] != "ada" || ex["v_name"] != "ben" {
		t.Errorf("/explain names = %v/%v, want ada/ben", ex["u_name"], ex["v_name"])
	}
	lo, hi := ex["ci_low"].(float64), ex["ci_high"].(float64)
	score := ex["score"].(float64)
	if lo > score || score > hi {
		t.Errorf("/explain CI [%v,%v] does not contain score %v", lo, hi, score)
	}
	if ex["ci_confidence"].(float64) != 0.95 {
		t.Errorf("ci_confidence = %v, want 0.95", ex["ci_confidence"])
	}
	if n := reg.Snapshot().Counters["semsim_explain_total"]; n != 1 {
		t.Errorf("semsim_explain_total = %d after one /explain, want 1", n)
	}
}

// TestServeQueryLogEvents: with a query log attached, each served
// request emits one NDJSON wide event carrying endpoint, status and
// latency, /explain events carry the CI width and /topk events the
// query, its result count and the planner's strategy.
func TestServeQueryLogEvents(t *testing.T) {
	var logbuf bytes.Buffer
	reg0 := semsim.NewMetrics()
	qlog := quality.NewQueryLog(&logbuf, reg0)
	mux, _ := newTestMux(t, qlog)

	for _, path := range []string{"/query?u=ada&v=ben", "/explain?u=ada&v=eve", "/topk?u=ada&k=3"} {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rr.Code)
		}
	}

	var events []flight.Record
	sc := bufio.NewScanner(&logbuf)
	for sc.Scan() {
		var ev flight.Record
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("query log line is not JSON: %v\n%s", err, sc.Text())
		}
		events = append(events, ev)
	}
	if len(events) != 3 {
		t.Fatalf("query log holds %d events, want 3", len(events))
	}
	endpoints := map[string]flight.Record{}
	for _, ev := range events {
		endpoints[ev.Endpoint] = ev
		if ev.Status != http.StatusOK {
			t.Errorf("%s event status %d, want 200", ev.Endpoint, ev.Status)
		}
		if ev.TimeNS == 0 || ev.LatencyNS <= 0 {
			t.Errorf("%s event missing timing: %+v", ev.Endpoint, ev)
		}
	}
	if ev, ok := endpoints["/explain"]; !ok {
		t.Error("no /explain wide event logged")
	} else if ev.CIWidth <= 0 {
		t.Errorf("/explain event CI width = %v, want > 0", ev.CIWidth)
	}
	if ev, ok := endpoints["/topk"]; !ok {
		t.Error("no /topk wide event logged")
	} else if ev.K != 3 || ev.Results == 0 || ev.Strategy == "" {
		t.Errorf("/topk event incomplete: %+v", ev)
	}
	if n := reg0.Snapshot().Counters["semsim_querylog_events_total"]; n != 3 {
		t.Errorf("semsim_querylog_events_total = %d, want 3", n)
	}
}

// TestServeQualityTelemetry runs the full serve path with the quality
// layer enabled — shadow verification at rate 1, a tight health poll and
// a query log — and asserts the telemetry all lands in /metrics.
func TestServeQualityTelemetry(t *testing.T) {
	g, lin := smokeGraph(t)
	stop := make(chan struct{})
	var logbuf bytes.Buffer
	cfg := serveConfig{
		debugAddr: "127.0.0.1:0",
		warmup:    8,
		opts: semsim.IndexOptions{
			NumWalks: 60, WalkLength: 8, C: 0.6, Theta: 0.05,
			SLINGCutoff: 0.1, Seed: 2,
			ShadowRate: 1,
		},
		healthInterval: 50 * time.Millisecond,
		stop:           stop,
		logw:           &logbuf,
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

	// The shadow reference is built in the background after readiness:
	// keep querying until a sample was verified against it and the
	// health ticker has polled, within a deadline.
	get("/explain?u=ada&v=eve")
	var metrics string
	for deadline := time.Now().Add(30 * time.Second); ; {
		get("/query?u=ada&v=ben")
		metrics = get("/metrics")
		if !strings.Contains(metrics, "semsim_shadow_checked_total 0\n") &&
			!strings.Contains(metrics, "semsim_runtime_goroutines 0\n") {
			break
		}
		if time.Now().After(deadline) {
			break // the checks below report what is missing
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, series := range []string{
		"semsim_shadow_checked_total",
		"semsim_shadow_abs_err_bucket",
		"semsim_shadow_worst_abs_err",
		"semsim_build_shadow_backend_seconds_count",
		"semsim_runtime_goroutines",
		"semsim_runtime_heap_alloc_bytes",
		"semsim_explain_total",
		"semsim_explain_seconds_count",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics missing quality series %s", series)
		}
	}
	if strings.Contains(metrics, "semsim_shadow_checked_total 0\n") {
		t.Error("shadow verifier checked nothing at rate 1")
	}
	if strings.Contains(metrics, "semsim_runtime_goroutines 0\n") {
		t.Error("runtime health gauges never polled")
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
}

// TestServeLinearSelfShadow serves on the linear backend while shadowing
// against "linear" at rate 1: the verifier must reuse the index's own
// backend (no second solve — the shadow-build histogram never registers)
// and, scoring every query against the matrix that produced it, count
// zero drift at any severity.
func TestServeLinearSelfShadow(t *testing.T) {
	g, lin := smokeGraph(t)
	stop := make(chan struct{})
	cfg := serveConfig{
		debugAddr: "127.0.0.1:0",
		warmup:    8,
		opts: semsim.IndexOptions{
			NumWalks: 60, WalkLength: 8, C: 0.6, Theta: 0.05,
			Seed:    2,
			Backend: "linear", ShadowRate: 1, ShadowBackend: "linear",
		},
		healthInterval: time.Hour, // health ticker out of the way
		stop:           stop,
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

	for _, path := range []string{
		"/query?u=ada&v=ben", "/query?u=ada&v=eve", "/query?u=ben&v=cho",
	} {
		get(path)
	}
	// Let the shadow worker drain its queue.
	time.Sleep(150 * time.Millisecond)

	metrics := get("/metrics")
	if strings.Contains(metrics, "semsim_build_shadow_backend_seconds") {
		t.Error("shadow built a second backend instead of reusing the linear index")
	}
	if strings.Contains(metrics, "semsim_shadow_checked_total 0\n") {
		t.Error("shadow verifier checked nothing at rate 1")
	}
	for _, severity := range []string{"warn", "critical"} {
		series := `semsim_shadow_drift_total{severity="` + severity + `"}`
		if !strings.Contains(metrics, series+" 0\n") {
			t.Errorf("self-shadowed linear backend drifted: %s not zero", series)
		}
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
}
