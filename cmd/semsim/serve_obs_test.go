package main

// Tests for the serving observability layer: readiness gating, request
// IDs, the SLO/query-log/profile wiring and the new /metrics series.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"semsim"
	"semsim/internal/obs/flight"
	"semsim/internal/obs/quality"
)

// TestHealthzReadiness is the readiness table test: before the swap the
// warming mux answers 503 everywhere (including /healthz); after it the
// real mux answers 200 on /healthz and serves the API.
func TestHealthzReadiness(t *testing.T) {
	warming := warmingMux()
	ready, _ := newTestMux(t, nil)
	cases := []struct {
		name string
		mux  *http.ServeMux
		path string
		want int
	}{
		{"warming healthz", warming, "/healthz", http.StatusServiceUnavailable},
		{"warming query", warming, "/query?u=ada&v=ben", http.StatusServiceUnavailable},
		{"warming metrics", warming, "/metrics", http.StatusServiceUnavailable},
		{"warming root", warming, "/", http.StatusServiceUnavailable},
		{"ready healthz", ready, "/healthz", http.StatusOK},
		{"ready query", ready, "/query?u=ada&v=ben", http.StatusOK},
		{"ready metrics", ready, "/metrics", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			tc.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.path, nil))
			if rec.Code != tc.want {
				t.Fatalf("GET %s: status %d, want %d: %s", tc.path, rec.Code, tc.want, rec.Body.String())
			}
		})
	}
	// Warming responses must carry the structured JSON error shape, so a
	// probe and a confused client read the same thing.
	rec := httptest.NewRecorder()
	warming.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?u=ada&v=ben", nil))
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("warming /query body is not JSON: %v\n%s", err, rec.Body.String())
	}
	if body["error"] == "" {
		t.Fatalf("warming /query body missing error field: %s", rec.Body.String())
	}
	if got := rec.Body.String(); !strings.Contains(strings.ToLower(got), "not ready") {
		t.Errorf("warming error does not say not ready: %s", got)
	}
	healthRec := httptest.NewRecorder()
	ready.ServeHTTP(healthRec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if got := strings.TrimSpace(healthRec.Body.String()); got != "ok" {
		t.Errorf("ready /healthz body = %q, want ok", got)
	}
}

func TestSanitizeRequestID(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"", ""},
		{"abc-123", "abc-123"},
		{"A.b_C-9", "A.b_C-9"},
		{"has space", ""},
		{"quote\"", ""},
		{"newline\n", ""},
		{"unicode-é", ""},
		{strings.Repeat("x", 64), strings.Repeat("x", 64)},
		{strings.Repeat("x", 65), ""},
	}
	for _, tc := range cases {
		if got := sanitizeRequestID(tc.in); got != tc.want {
			t.Errorf("sanitizeRequestID(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestRequestIDAssignment: serve echoes a well-formed caller ID, mints
// one otherwise, and stamps the effective ID into the query log.
func TestRequestIDAssignment(t *testing.T) {
	var qbuf bytes.Buffer
	mux, _ := newTestMux(t, quality.NewQueryLog(&qbuf, nil))

	do := func(header string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, "/query?u=ada&v=ben", nil)
		if header != "" {
			req.Header.Set(requestIDHeader, header)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		return rec
	}

	// Caller-supplied well-formed ID: propagated verbatim.
	rec := do("gateway-42")
	if got := rec.Header().Get(requestIDHeader); got != "gateway-42" {
		t.Errorf("well-formed caller ID not propagated: header %q", got)
	}

	// No ID: one is minted and echoed.
	rec = do("")
	minted := rec.Header().Get(requestIDHeader)
	if minted == "" {
		t.Fatal("no request ID echoed for a headerless request")
	}
	if sanitizeRequestID(minted) != minted {
		t.Errorf("minted ID %q is not itself well-formed", minted)
	}

	// Malformed ID: replaced, not propagated.
	rec = do("bad id with spaces")
	if got := rec.Header().Get(requestIDHeader); got == "bad id with spaces" || got == "" {
		t.Errorf("malformed caller ID handling: header %q, want a fresh minted ID", got)
	}

	// Each minted ID is distinct.
	if again := do("").Header().Get(requestIDHeader); again == minted {
		t.Errorf("two minted IDs collide: %q", again)
	}

	// The query log carries the effective ID of each request.
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(qbuf.String()), "\n") {
		var ev flight.Record
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("query log line not JSON: %v\n%s", err, line)
		}
		ids = append(ids, ev.RequestID)
	}
	if len(ids) != 4 {
		t.Fatalf("query log has %d events, want 4", len(ids))
	}
	if ids[0] != "gateway-42" {
		t.Errorf("query log event 0 request_id = %q, want gateway-42", ids[0])
	}
	if ids[1] != minted {
		t.Errorf("query log event 1 request_id = %q, want minted %q", ids[1], minted)
	}
	for i, id := range ids {
		if id == "" {
			t.Errorf("query log event %d has no request_id", i)
		}
	}
}

// TestServeObsEndToEnd runs the full serve path with the SLO tracker,
// query log and anomaly profiler armed, and asserts the new /metrics
// series, the query log's events and the /debug/profiles surface.
func TestServeObsEndToEnd(t *testing.T) {
	g, lin := smokeGraph(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "query.ndjson")
	stop := make(chan struct{})
	var logbuf bytes.Buffer
	cfg := serveConfig{
		debugAddr: "127.0.0.1:0",
		warmup:    4,
		opts: semsim.IndexOptions{
			NumWalks: 60, WalkLength: 8, C: 0.6, Theta: 0.05,
			SLINGCutoff: 0.1, Seed: 1,
		},
		sloLatency:   50 * time.Millisecond,
		sloObjective: 0.99,
		sloWindow:    time.Minute,
		queryLogPath: logPath,
		profileP99:   time.Second,
		stop:         stop,
		logw:         &logbuf,
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

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return resp.StatusCode, b.String()
	}

	if code, body := get("/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}
	for _, p := range []string{"/query?u=ada&v=ben", "/explain?u=ada&v=eve", "/topk?u=cho&k=3", "/query?u=ada&v=nobody"} {
		get(p)
	}

	_, metrics := get("/metrics")
	for _, series := range []string{
		`semsim_slo_latency_burn_rate{window="1m"}`,
		`semsim_slo_latency_burn_rate{window="12m"}`,
		`semsim_slo_error_burn_rate{window="1m"}`,
		"semsim_slo_requests_total 4",
		"semsim_slo_objective 0.99",
		"semsim_build_info{",
		`backend="mc"`,
		`walk_format="3"`,
		`walk_residency="resident"`,
		`semsim_http_requests_total{endpoint="/query"} 2`,
		`semsim_http_requests_total{endpoint="/explain"} 1`,
		`semsim_http_requests_total{endpoint="/topk"} 1`,
		"semsim_http_request_seconds_count 4",
		"semsim_profile_captures_total 0",
		"semsim_profile_p99_threshold_seconds 1",
		"semsim_querylog_events_total 4",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	// build_info is a constant-1 gauge.
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "semsim_build_info{") && !strings.HasSuffix(line, " 1") {
			t.Errorf("semsim_build_info not constant 1: %s", line)
		}
	}

	// /debug/profiles serves the (empty) capture ring as JSON.
	code, body := get("/debug/profiles")
	if code != http.StatusOK {
		t.Fatalf("/debug/profiles = %d: %s", code, body)
	}
	var idx struct {
		Captures []json.RawMessage `json:"captures"`
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatalf("/debug/profiles not JSON: %v\n%s", err, body)
	}
	if len(idx.Captures) != 0 {
		t.Errorf("capture ring not empty under healthy traffic: %s", body)
	}

	close(stop)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not shut down")
	}

	// The query log holds one event per API request, each with a
	// request ID and a start time, and each successful read with its
	// three phases.
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 {
		t.Fatalf("query log has %d events, want 4:\n%s", len(lines), data)
	}
	endpoints := map[string]int{}
	for _, line := range lines {
		var rec flight.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("query log event not JSON: %v\n%s", err, line)
		}
		if rec.RequestID == "" || rec.TimeNS == 0 {
			t.Errorf("event missing request_id or time_ns: %s", line)
		}
		if rec.Status == http.StatusOK && (rec.ResolveNS <= 0 || rec.ScoreNS <= 0 || rec.EncodeNS <= 0) {
			t.Errorf("read event missing a phase duration: %s", line)
		}
		endpoints[rec.Endpoint]++
	}
	if endpoints["/query"] != 2 || endpoints["/explain"] != 1 || endpoints["/topk"] != 1 {
		t.Errorf("events by endpoint = %v, want /query:2 /explain:1 /topk:1", endpoints)
	}
}

// TestServeQueryLogRotation drives runServe with a byte-bounded query
// log and asserts the rotation produced exactly one .1 generation.
func TestServeQueryLogRotation(t *testing.T) {
	g, lin := smokeGraph(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "query.ndjson")
	stop := make(chan struct{})
	var logbuf bytes.Buffer
	cfg := serveConfig{
		debugAddr: "127.0.0.1:0",
		warmup:    2,
		opts: semsim.IndexOptions{
			NumWalks: 40, WalkLength: 6, C: 0.6, Theta: 0.05,
			SLINGCutoff: 0.1, Seed: 1,
		},
		queryLogPath:     logPath,
		queryLogMaxBytes: 2048,
		stop:             stop,
		logw:             &logbuf,
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

	// Push enough events through to exceed 2 KiB of wide events.
	for i := 0; i < 40; i++ {
		resp, err := http.Get(fmt.Sprintf("http://%s/query?u=ada&v=ben", addr))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	close(stop)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not shut down")
	}

	cur, err := os.Stat(logPath)
	if err != nil {
		t.Fatalf("active query log missing: %v", err)
	}
	old, err := os.Stat(logPath + ".1")
	if err != nil {
		t.Fatalf("rotated generation missing: %v", err)
	}
	if cur.Size() > 2048 || old.Size() > 2048 {
		t.Errorf("generation over the byte bound: active %d, rotated %d", cur.Size(), old.Size())
	}
	// Both generations must still be valid NDJSON wide events.
	for _, p := range []string{logPath, logPath + ".1"} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if line == "" {
				continue
			}
			var ev flight.Record
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("%s: bad NDJSON line: %v\n%s", p, err, line)
			}
		}
	}
}
