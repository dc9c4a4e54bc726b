package main

// Tests for the read path of the serve API: what one read allocates,
// the wire shape of every JSON response, that responses carry exactly
// the facade's answers, panic containment in the wrap middleware, and
// a fuzzer over the API endpoints.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"semsim"
	"semsim/internal/obs/flight"
	"semsim/internal/obs/quality"
)

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status, so that an allocation count sees the handler's own.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// TestServeReadAllocs gates the heap allocations of one read through
// the mux on a warm index: exactly for /query and /explain, and as a
// ceiling for /topk, whose pooled scoring scratch can vary by one. The
// request carries its own ID, as servebench and loadgen send one, so
// the count is the handler's and not the ID minting's.
//
// The race detector drops a quarter of sync.Pool puts, and
// encoding/json draws its encode state from a pool, so under -race the
// counts are ceilings raised by what refilling the pool costs.
func TestServeReadAllocs(t *testing.T) {
	mux, _ := newTestMux(t, nil)
	w := &discardWriter{h: http.Header{}}
	cases := []struct {
		path  string
		want  float64
		exact bool
	}{
		{"/query?u=ada&v=ben", 8, true},
		{"/explain?u=ada&v=ben", 9, true},
		{"/topk?u=ada&k=3", 20, false},
	}
	for _, c := range cases {
		req := httptest.NewRequest("GET", c.path, nil)
		req.Header.Set(requestIDHeader, "alloc-probe")
		serve := func() {
			w.status = 0
			mux.ServeHTTP(w, req)
		}
		serve() // warm the SO cache, the kernel memo and the pools
		if w.status != http.StatusOK {
			t.Fatalf("GET %s: status %d", c.path, w.status)
		}
		got := testing.AllocsPerRun(200, serve)
		switch {
		case raceEnabled:
			if got > c.want+raceAllocSlack {
				t.Errorf("GET %s: %v allocs per request under -race, want at most %v", c.path, got, c.want+raceAllocSlack)
			}
		case c.exact && got != c.want:
			t.Errorf("GET %s: %v allocs per request, want %v", c.path, got, c.want)
		case got > c.want:
			t.Errorf("GET %s: %v allocs per request, want at most %v", c.path, got, c.want)
		}
	}
}

// TestServeWireShape: every JSON response is one compact line with
// today's key set, and the read endpoints answer exactly what a View
// pinned to the same epoch answers, bit for bit.
func TestServeWireShape(t *testing.T) {
	mux, idx, _ := newTestServer(t, nil)
	p := idx.Pin()
	g := p.Graph()
	ada, _ := g.NodeByName("ada")
	dee, _ := g.NodeByName("dee")

	// body serves one request and checks it answered status with one
	// line of JSON.
	body := func(method, path, payload string, status int) []byte {
		t.Helper()
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(method, path, strings.NewReader(payload)))
		b := rr.Body.Bytes()
		if rr.Code != status {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, rr.Code, status, b)
		}
		if bytes.IndexByte(b, '\n') != len(b)-1 {
			t.Errorf("%s %s: body is not one line: %q", method, path, b)
		}
		if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q", method, path, ct)
		}
		return b
	}
	keys := func(b []byte) []string {
		t.Helper()
		var m map[string]json.RawMessage
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	wantKeys := func(what string, got []string, want ...string) {
		t.Helper()
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s keys = %v, want %v", what, got, want)
		}
	}

	b := body("GET", "/query?u=ada&v=dee", "", http.StatusOK)
	wantKeys("/query", keys(b), "u", "v", "sem", "semsim", "simrank", "cost")
	var q struct {
		U, V                 string
		Sem, SemSim, SimRank float64
	}
	if err := json.Unmarshal(b, &q); err != nil {
		t.Fatal(err)
	}
	if q.U != "ada" || q.V != "dee" || q.Sem != p.Sem().Sim(ada, dee) ||
		q.SemSim != p.QueryCost(ada, dee, nil) || q.SimRank != p.SimRankQuery(ada, dee) {
		t.Errorf("/query = %+v, want sem %v semsim %v simrank %v", q,
			p.Sem().Sim(ada, dee), p.QueryCost(ada, dee, nil), p.SimRankQuery(ada, dee))
	}
	if q.SemSim == 0 {
		t.Error("/query scored 0: the pair proves nothing about bit-identity")
	}

	b = body("GET", "/explain?u=ada&v=dee", "", http.StatusOK)
	ex, err := p.ExplainQuery(ada, dee)
	if err != nil {
		t.Fatal(err)
	}
	var exResp semsim.Explanation
	if err := json.Unmarshal(b, &exResp); err != nil {
		t.Fatal(err)
	}
	if exResp.Score != ex.Score || exResp.UName != "ada" || exResp.VName != "dee" {
		t.Errorf("/explain score %v (%s, %s), want %v (ada, dee)", exResp.Score, exResp.UName, exResp.VName, ex.Score)
	}
	// Every key is one of Explanation's tags, and every tag without
	// omitempty is present.
	tags := map[string]bool{}
	var always []string
	et := reflect.TypeOf(semsim.Explanation{})
	for i := 0; i < et.NumField(); i++ {
		name, opts, _ := strings.Cut(et.Field(i).Tag.Get("json"), ",")
		tags[name] = true
		if opts != "omitempty" {
			always = append(always, name)
		}
	}
	got := keys(b)
	for _, k := range got {
		if !tags[k] {
			t.Errorf("/explain key %q is not an Explanation tag", k)
		}
	}
	for _, k := range always {
		if i := sort.SearchStrings(got, k); i == len(got) || got[i] != k {
			t.Errorf("/explain lacks key %q", k)
		}
	}

	b = body("GET", "/topk?u=ada&k=3", "", http.StatusOK)
	wantKeys("/topk", keys(b), "u", "k", "results", "cost")
	var tk struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(b, &tk); err != nil {
		t.Fatal(err)
	}
	want := p.TopKCost(ada, 3, nil)
	if len(tk.Results) != len(want) || len(want) == 0 {
		t.Fatalf("/topk returned %d results, the view %d", len(tk.Results), len(want))
	}
	for i, raw := range tk.Results {
		wantKeys("/topk result", keys(raw), "node", "score")
		var h topkHit
		if err := json.Unmarshal(raw, &h); err != nil {
			t.Fatal(err)
		}
		if h.Node != g.NodeName(want[i].Node) || h.Score != want[i].Score {
			t.Errorf("/topk result %d = %+v, want %s %v", i, h, g.NodeName(want[i].Node), want[i].Score)
		}
	}

	wantKeys("error", keys(body("GET", "/query?u=ada&v=nobody", "", http.StatusNotFound)), "error")
	wantKeys("/debug/heavy", keys(body("GET", "/debug/heavy", "", http.StatusOK)), "capacity", "tracked", "top")
	var snap semsim.MetricsSnapshot
	if err := json.Unmarshal(body("GET", "/snapshot", "", http.StatusOK), &snap); err != nil {
		t.Fatalf("/snapshot: %v", err)
	}
	if snap.Counters["semsim_queries_total"] == 0 {
		t.Error("/snapshot decoded without the query counter")
	}

	// Last, as it moves the index to a new epoch.
	b = body("POST", "/mutate", `{"ops":[{"op":"add_edge","from":"ada","to":"fay","label":"co-author"}]}`, http.StatusOK)
	wantKeys("/mutate", keys(b), "epoch", "ops", "resampled_walks", "new_nodes")
}

// TestServeRecoversPanic: a panicking handler answers 500 with the
// shared error shape, its event reaches the flight ring, the HTTP
// histogram and the query log as a server error, the serve log gets the
// panic and its stack, and the mux keeps serving.
func TestServeRecoversPanic(t *testing.T) {
	mux, _, so := newTestServer(t, nil)
	var logbuf, qlogBuf bytes.Buffer
	so.logw = &logbuf
	so.qlog = quality.NewQueryLog(&qlogBuf, so.reg)
	mux.HandleFunc("/boom", so.wrap("/boom", func(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
		ri.U = "ada"
		var names []string
		_ = names[len(r.URL.Path)] // index out of range
	}))
	mux.HandleFunc("/abort", so.wrap("/abort", func(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
		panic(http.ErrAbortHandler)
	}))
	mux.HandleFunc("/cut", so.wrap("/cut", func(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
		w.Write([]byte(`{"u":`))
		panic("cut short")
	}))

	rr := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/boom", nil)
	req.Header.Set(requestIDHeader, "boom-1")
	mux.ServeHTTP(rr, req)
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", rr.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("panic body %q is not the error shape (%v)", rr.Body, err)
	}
	recs := so.flightRing.Snapshot()
	last := recs[len(recs)-1]
	if last.Endpoint != "/boom" || last.RequestID != "boom-1" || last.U != "ada" || last.Status != http.StatusInternalServerError ||
		last.ErrClass != "server" || !strings.Contains(last.Error, "index out of range") || last.LatencyNS <= 0 {
		t.Errorf("panic's flight record = %+v", last)
	}
	var logged flight.Record
	if err := json.Unmarshal(qlogBuf.Bytes(), &logged); err != nil || logged != last {
		t.Errorf("query log line %q, want the flight record (%v)", qlogBuf.Bytes(), err)
	}
	if n := so.reg.Snapshot().Histograms["semsim_http_request_seconds"].Count; n != 1 {
		t.Errorf("HTTP histogram observed %d requests, want 1", n)
	}
	if l := logbuf.String(); !strings.Contains(l, "panic serving /boom (request boom-1)") || !strings.Contains(l, "goroutine") {
		t.Errorf("serve log lacks the panic and its stack:\n%s", l)
	}

	// A handler that aborts on purpose is let go; one that panics after
	// writing has its response aborted, and its event still recorded.
	for _, path := range []string{"/abort", "/cut"} {
		func() {
			defer func() {
				if p := recover(); p != http.ErrAbortHandler {
					t.Errorf("%s: recovered %v, want http.ErrAbortHandler", path, p)
				}
			}()
			mux.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil))
		}()
	}
	recs = so.flightRing.Snapshot()
	if last := recs[len(recs)-1]; last.Endpoint != "/cut" || last.Status != http.StatusInternalServerError || last.Error != "panic: cut short" {
		t.Errorf("cut response's flight record = %+v", last)
	}

	get(t, mux, "/query?u=ada&v=ben")
}

// FuzzServeAPI drives the API endpoints with fuzzed query strings and
// mutation bodies. Whatever the input, no panic escapes, the status is
// one the API documents for client input (a recovered 500 fails), the
// body is JSON, a pair read's scores lie in [0, 1], a top-k list holds
// at most k results in descending order, and the newest flight record
// carries the response's status and request ID.
func FuzzServeAPI(f *testing.F) {
	f.Add(uint8(0), "u=ada&v=ben", "")
	f.Add(uint8(0), "u=ada&v=ada", "")
	f.Add(uint8(0), "u=ada", "")
	f.Add(uint8(1), "u=cho&v=fay", "")
	f.Add(uint8(1), "u=%zz&v=ben", "")
	f.Add(uint8(2), "u=ada&k=3", "")
	f.Add(uint8(2), "u=eve&k=1000000", "")
	f.Add(uint8(2), "u=ada&k=-1", "")
	f.Add(uint8(3), "", `{"ops":[{"op":"add_edge","from":"ada","to":"fay","label":"co-author","weight":2}]}`)
	f.Add(uint8(3), "", `{"ops":[{"op":"add_node","name":"gus","label":"author"},{"op":"add_edge","from":"gus","to":"ada","label":"co-author"}]}`)
	f.Add(uint8(3), "", `{"ops":[{"op":"remove_edge","from":"ada","to":"ben","label":"co-author"}]}`)
	f.Add(uint8(3), "", `{"ops":[{"op":"update_concept_freq","concept":"Databases","freq":0.5}]}`)
	f.Add(uint8(3), "", `{"ops":[{"op":"add_edge","from":"ada","to":"ben","weight":-1}]}`)
	f.Add(uint8(3), "", `{"ops":[]}`)
	f.Add(uint8(7), "", `{"ops":[{"op":"add_node","name":"hal"}]}`)
	mux, _, so := newTestServer(f, nil)
	endpoints := []string{"/query", "/explain", "/topk", "/mutate"}
	allowed := map[int]bool{200: true, 400: true, 404: true, 405: true, 409: true}
	f.Fuzz(func(t *testing.T, sel uint8, query, body string) {
		endpoint := endpoints[int(sel)%len(endpoints)]
		method := "GET"
		if endpoint == "/mutate" && sel&4 == 0 {
			method = "POST"
		}
		req := httptest.NewRequest(method, endpoint, strings.NewReader(body))
		req.URL.RawQuery = query
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, req)
		if !allowed[rr.Code] {
			t.Fatalf("%s %s?%s %q: status %d: %s", method, endpoint, query, body, rr.Code, rr.Body)
		}
		if !json.Valid(rr.Body.Bytes()) {
			t.Fatalf("%s %s?%s: body is not JSON: %q", method, endpoint, query, rr.Body)
		}
		if rr.Code == http.StatusOK {
			switch endpoint {
			case "/query":
				var q struct{ Sem, SemSim, SimRank float64 }
				if err := json.Unmarshal(rr.Body.Bytes(), &q); err != nil {
					t.Fatal(err)
				}
				for _, s := range []float64{q.Sem, q.SemSim, q.SimRank} {
					if !(s >= 0 && s <= 1) {
						t.Fatalf("/query?%s = %+v: a score outside [0, 1]", query, q)
					}
				}
			case "/topk":
				var tk struct {
					K       int
					Results []topkHit
				}
				if err := json.Unmarshal(rr.Body.Bytes(), &tk); err != nil {
					t.Fatal(err)
				}
				if len(tk.Results) > tk.K {
					t.Fatalf("/topk?%s: %d results for k=%d", query, len(tk.Results), tk.K)
				}
				for i := 1; i < len(tk.Results); i++ {
					if tk.Results[i].Score > tk.Results[i-1].Score {
						t.Fatalf("/topk?%s: results out of order: %+v", query, tk.Results)
					}
				}
			}
		}
		recs := so.flightRing.Snapshot()
		last := recs[len(recs)-1]
		if last.Status != rr.Code || last.RequestID != rr.Header().Get(requestIDHeader) || last.Endpoint != endpoint {
			t.Fatalf("newest flight record %+v, want %s status %d request %q",
				last, endpoint, rr.Code, rr.Header().Get(requestIDHeader))
		}
	})
}
