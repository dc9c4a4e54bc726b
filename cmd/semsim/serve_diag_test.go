package main

// Tests for the incident-diagnostics surface: per-request cost
// accounting in responses and /metrics, the flight recorder at
// /debug/flight, the heavy-hitters sketch at /debug/heavy, and the
// one-shot /debug/diag bundle plus its client-side unpack.

import (
	"archive/tar"
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"semsim"
	"semsim/internal/obs/flight"
	"semsim/internal/obs/quality"
	"semsim/internal/promlint"
)

func get(t *testing.T, mux *http.ServeMux, path string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rr.Code, rr.Body)
	}
	return rr
}

// TestServeQueryCostPayload: /query and /topk responses embed the cost
// accounting, and the counters reflect real work.
func TestServeQueryCostPayload(t *testing.T) {
	mux, _ := newTestMux(t, nil)
	var q struct {
		Cost semsim.Cost `json:"cost"`
	}
	if err := json.Unmarshal(get(t, mux, "/query?u=ada&v=ben").Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Cost.Pairs != 1 || q.Cost.KernelProbes == 0 {
		t.Errorf("/query cost = %+v, want pairs=1 and kernel probes > 0", q.Cost)
	}
	var tk struct {
		Cost semsim.Cost `json:"cost"`
	}
	if err := json.Unmarshal(get(t, mux, "/topk?u=ada&k=3").Body.Bytes(), &tk); err != nil {
		t.Fatal(err)
	}
	if tk.Cost.Pairs <= 1 {
		t.Errorf("/topk cost = %+v, want pairs > 1 (scans many candidates)", tk.Cost)
	}
}

// TestServeFlightEndpoint: every API request lands in the flight
// recorder; the dump is parseable NDJSON carrying request IDs, status
// and cost, with error requests classified.
func TestServeFlightEndpoint(t *testing.T) {
	mux, _ := newTestMux(t, nil)
	get(t, mux, "/query?u=ada&v=ben")
	get(t, mux, "/topk?u=ada&k=3")
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/query?u=ada&v=nobody", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("unknown-node query: status %d", rr.Code)
	}

	dump := get(t, mux, "/debug/flight")
	if ct := dump.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("/debug/flight Content-Type = %q", ct)
	}
	type rec struct {
		Seq       uint64      `json:"seq"`
		Endpoint  string      `json:"endpoint"`
		RequestID string      `json:"request_id"`
		Status    int         `json:"status"`
		ErrClass  string      `json:"err_class"`
		LatencyNS int64       `json:"latency_ns"`
		Cost      semsim.Cost `json:"cost"`
	}
	var recs []rec
	sc := bufio.NewScanner(bytes.NewReader(dump.Body.Bytes()))
	for sc.Scan() {
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("torn flight line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 3 {
		t.Fatalf("flight holds %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.RequestID == "" || r.LatencyNS <= 0 {
			t.Errorf("record %d incomplete: %+v", i, r)
		}
		if i > 0 && recs[i-1].Seq >= r.Seq {
			t.Errorf("records out of order: seq %d then %d", recs[i-1].Seq, r.Seq)
		}
	}
	if recs[0].Endpoint != "/query" || recs[0].Status != 200 || recs[0].Cost.Pairs != 1 {
		t.Errorf("first record = %+v", recs[0])
	}
	last := recs[2]
	if last.Status != http.StatusNotFound || last.ErrClass != "client" {
		t.Errorf("error record = %+v, want 404/client", last)
	}
}

// TestServeOneEventPerRequest: every API request — errors and /mutate
// included — makes one event, which the flight ring keeps and the query
// log writes as its line, and each read's event carries its phase
// durations within its latency.
func TestServeOneEventPerRequest(t *testing.T) {
	var qbuf bytes.Buffer
	mux, _ := newTestMux(t, quality.NewQueryLog(&qbuf, nil))
	reqs := []struct {
		method, path, body string
		status             int
	}{
		{"GET", "/query?u=ada&v=ben", "", http.StatusOK},
		{"GET", "/explain?u=ada&v=eve", "", http.StatusOK},
		{"GET", "/topk?u=cho&k=3", "", http.StatusOK},
		{"GET", "/query?u=ada&v=nobody", "", http.StatusNotFound},
		{"POST", "/mutate", `{"ops":[{"op":"add_edge","from":"ada","to":"fay","label":"co-author"}]}`, http.StatusOK},
	}
	for _, rq := range reqs {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(rq.method, rq.path, strings.NewReader(rq.body)))
		if rr.Code != rq.status {
			t.Fatalf("%s %s: status %d, want %d: %s", rq.method, rq.path, rr.Code, rq.status, rr.Body)
		}
	}

	decode := func(data []byte) []flight.Record {
		t.Helper()
		var recs []flight.Record
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			var rec flight.Record
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			recs = append(recs, rec)
		}
		return recs
	}
	ring := map[string]flight.Record{}
	for _, rec := range decode(get(t, mux, "/debug/flight").Body.Bytes()) {
		ring[rec.RequestID] = rec
	}
	logged := decode(qbuf.Bytes())
	if len(logged) != len(reqs) {
		t.Fatalf("query log holds %d lines for %d requests", len(logged), len(reqs))
	}
	for i, rec := range logged {
		if want, ok := ring[rec.RequestID]; !ok || rec != want {
			t.Errorf("log line %d = %+v\nflight record = %+v", i+1, rec, want)
		}
		if rec.Status != reqs[i].status || !strings.HasPrefix(reqs[i].path, rec.Endpoint) {
			t.Errorf("log line %d is %s %d, want %s %d", i+1, rec.Endpoint, rec.Status, reqs[i].path, reqs[i].status)
		}
		switch {
		case rec.Endpoint == "/mutate":
			if rec.Epoch != 1 || rec.CommitNS <= 0 {
				t.Errorf("/mutate event = %+v, want epoch 1 and its commit time", rec)
			}
		case rec.Status != http.StatusOK:
			if rec.ErrClass != "client" || rec.Error != "unknown node nobody" {
				t.Errorf("error event = %+v, want the client error it answered", rec)
			}
		default:
			if rec.ResolveNS <= 0 || rec.ScoreNS <= 0 || rec.EncodeNS <= 0 ||
				rec.ResolveNS+rec.ScoreNS+rec.EncodeNS > rec.LatencyNS {
				t.Errorf("%s phases %d+%d+%d ns, want each > 0 and their sum within the latency %d ns",
					rec.Endpoint, rec.ResolveNS, rec.ScoreNS, rec.EncodeNS, rec.LatencyNS)
			}
		}
	}
}

// TestServeHeavyEndpoint: repeated traffic from one source dominates the
// heavy-hitters sketch.
func TestServeHeavyEndpoint(t *testing.T) {
	mux, _ := newTestMux(t, nil)
	for i := 0; i < 5; i++ {
		get(t, mux, "/query?u=ada&v=ben")
	}
	get(t, mux, "/query?u=ben&v=ada")

	var body struct {
		Capacity int `json:"capacity"`
		Tracked  int `json:"tracked"`
		Top      []struct {
			Key   string `json:"key"`
			Count int64  `json:"count"`
		} `json:"top"`
	}
	if err := json.Unmarshal(get(t, mux, "/debug/heavy?n=5").Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Tracked != 2 || len(body.Top) != 2 {
		t.Fatalf("heavy tracked=%d top=%d, want 2/2", body.Tracked, len(body.Top))
	}
	if body.Top[0].Key != "ada" || body.Top[0].Count <= body.Top[1].Count {
		t.Errorf("heavy top = %+v, want ada dominating", body.Top)
	}
}

// TestServeMetricsCostSeries: after costed traffic the /metrics scrape
// carries the semsim_query_cost_* histograms and the heavy-hitters
// series, and the whole exposition stays promlint-clean.
func TestServeMetricsCostSeries(t *testing.T) {
	mux, _ := newTestMux(t, nil)
	get(t, mux, "/query?u=ada&v=ben")
	get(t, mux, "/topk?u=ada&k=3")

	body := get(t, mux, "/metrics").Body.String()
	for _, series := range []string{
		"semsim_query_cost_walk_steps",
		"semsim_query_cost_so_hits",
		"semsim_query_cost_so_misses",
		"semsim_query_cost_kernel_probes",
		"semsim_heavy_observations_total",
		"semsim_heavy_tracked_keys",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	if problems := promlint.Lint(strings.NewReader(body)); len(problems) > 0 {
		t.Errorf("promlint problems on /metrics: %v", problems)
	}
}

// TestServeDiagBundleRoundTrip: /debug/diag streams a tar.gz whose
// entries unpack through the diag subcommand's extractor, every
// required entry is present and non-empty, and the flight dump inside
// the bundle joins to the query log by request ID.
func TestServeDiagBundleRoundTrip(t *testing.T) {
	var qbuf bytes.Buffer
	reg := semsim.NewMetrics()
	qlog := quality.NewQueryLog(&qbuf, reg)
	mux, _ := newTestMux(t, qlog)
	get(t, mux, "/query?u=ada&v=ben")
	get(t, mux, "/topk?u=ben&k=2")

	rr := get(t, mux, "/debug/diag")
	if ct := rr.Header().Get("Content-Type"); ct != "application/gzip" {
		t.Errorf("/debug/diag Content-Type = %q", ct)
	}

	dir := t.TempDir()
	var report bytes.Buffer
	n, err := unpackDiag(bytes.NewReader(rr.Body.Bytes()), dir, &report)
	if err != nil {
		t.Fatalf("unpackDiag: %v", err)
	}
	want := []string{
		"metrics.prom", "expvar.json", "flight.ndjson",
		"profiles.json", "slo.json", "heavy.json", "buildinfo.json",
	}
	if n != len(want) {
		t.Fatalf("bundle holds %d entries, want %d (report: %s)", n, len(want), report.String())
	}
	for _, name := range want {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("bundle entry %s missing: %v", name, err)
		}
		if len(data) == 0 {
			t.Errorf("bundle entry %s is empty", name)
		}
	}

	var build struct {
		Backend string `json:"backend"`
		Go      string `json:"go"`
		Nodes   int    `json:"nodes"`
	}
	data, _ := os.ReadFile(filepath.Join(dir, "buildinfo.json"))
	if err := json.Unmarshal(data, &build); err != nil {
		t.Fatalf("buildinfo.json: %v", err)
	}
	if build.Backend == "" || build.Go == "" || build.Nodes == 0 {
		t.Errorf("buildinfo incomplete: %+v", build)
	}

	var slo struct {
		Enabled bool `json:"enabled"`
	}
	data, _ = os.ReadFile(filepath.Join(dir, "slo.json"))
	if err := json.Unmarshal(data, &slo); err != nil {
		t.Fatalf("slo.json: %v", err)
	}
	if slo.Enabled {
		t.Error("slo.json claims enabled with no tracker configured")
	}

	// Join check: every flight request ID from a logged endpoint appears
	// in the query log, so an operator can pivot bundle → log.
	qids := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(qbuf.Bytes()))
	for sc.Scan() {
		var ev struct {
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		qids[ev.RequestID] = true
	}
	if len(qids) != 2 {
		t.Fatalf("query log holds %d request IDs, want 2", len(qids))
	}
	fdata, _ := os.ReadFile(filepath.Join(dir, "flight.ndjson"))
	joined := 0
	sc = bufio.NewScanner(bytes.NewReader(fdata))
	for sc.Scan() {
		var r struct {
			Endpoint  string `json:"endpoint"`
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if r.Endpoint == "/query" || r.Endpoint == "/topk" {
			if !qids[r.RequestID] {
				t.Errorf("flight record %s (%s) has no query-log line", r.RequestID, r.Endpoint)
			}
			joined++
		}
	}
	if joined != 2 {
		t.Errorf("flight dump joined %d records to the query log, want 2", joined)
	}
}

// newGzTar writes a gzip-compressed tar with the given entries into w.
func newGzTar(t *testing.T, w io.Writer, entries map[string][]byte) {
	t.Helper()
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	for name, data := range entries {
		if err := tw.WriteHeader(&tar.Header{Name: name, Mode: 0o644, Size: int64(len(data))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUnpackDiagRejectsTraversal: hostile entry names cannot escape the
// output directory.
func TestUnpackDiagRejectsTraversal(t *testing.T) {
	var raw bytes.Buffer
	newGzTar(t, &raw, map[string][]byte{
		"../../escape.txt": []byte("nope"),
		"ok.txt":           []byte("fine"),
	})
	dir := t.TempDir()
	if _, err := unpackDiag(bytes.NewReader(raw.Bytes()), dir, io.Discard); err != nil {
		t.Fatalf("unpackDiag: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "escape.txt")); err != nil {
		t.Error("traversal entry was not flattened into dir")
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(filepath.Dir(dir)), "escape.txt")); err == nil {
		t.Error("traversal entry escaped the output directory")
	}
}
