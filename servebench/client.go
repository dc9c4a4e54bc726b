package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"semsim"
	"semsim/servebench/bench"
)

// Per-request client timeouts: a read or a commit that takes longer
// counts as failed instead of stalling the run.
const (
	readTimeout  = 10 * time.Second
	writeTimeout = 60 * time.Second
)

// tally counts one stream's outcomes. Every attempted op either succeeds
// or lands in exactly one failure class; answer mismatches found by the
// in-process check are added to the same count.
type tally struct {
	attempted  int
	status4xx  int
	status5xx  int
	conflicts  int // 409 from /mutate
	transport  int // connection errors, non-timeout
	timeouts   int
	mismatches int
}

func (t *tally) failed() int {
	return t.status4xx + t.status5xx + t.conflicts + t.transport + t.timeouts + t.mismatches
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.status4xx += o.status4xx
	t.status5xx += o.status5xx
	t.conflicts += o.conflicts
	t.transport += o.transport
	t.timeouts += o.timeouts
	t.mismatches += o.mismatches
}

// conn is one keep-alive connection to the server, used by one stream.
type conn struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
	tally  tally
}

func newConn(addr string, timeout time.Duration) *conn {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &conn{base: "http://" + addr, client: &http.Client{Transport: tr, Timeout: timeout}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// call sends one request and reads the whole response into c.buf. It
// returns whether the op succeeded (2xx), having counted it either way.
func (c *conn) call(method, path, reqID string, body []byte) bool {
	c.tally.attempted++
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.tally.transport++
		return false
	}
	req.Header.Set("X-Semsim-Request", reqID)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			c.tally.timeouts++
		} else {
			c.tally.transport++
		}
		return false
	}
	switch {
	case resp.StatusCode == http.StatusConflict:
		c.tally.conflicts++
	case resp.StatusCode >= 500:
		c.tally.status5xx++
	case resp.StatusCode >= 300:
		c.tally.status4xx++
	default:
		return true
	}
	return false
}

// sample is a response kept for the in-process answer check.
type sample struct {
	read bench.Read
	body []byte
}

// costSums accumulates the cost objects of traced responses.
type costSums struct {
	reads, topk int
	topkPairs   int64
	semsim.Cost
}

// reader drives one closed-loop read stream over a seeded sequence.
type reader struct {
	c      *conn
	reads  *bench.Reads
	i      int // sequence index of the next read
	stride int // keep every stride-th response for the answer check (0 = none)

	samples []sample
	// lat holds the measured reads' latencies.
	lat []time.Duration

	// Tracing (nil tracer = off): one span per call under parent, cost
	// objects summed per measured read.
	tr     *bench.Tracer
	parent int32
	cost   costSums

	failRun int // consecutive failed reads
}

// next issues the next read of the sequence; measured reads are recorded.
func (r *reader) next(measured bool) {
	rd := r.reads.Next()
	i := r.i
	r.i++
	id := fmt.Sprintf("sb-r%d", i)
	t0 := time.Now()
	ok := r.c.call(http.MethodGet, rd.Path(), id, nil)
	t1 := time.Now()
	if measured {
		r.lat = append(r.lat, t1.Sub(t0))
	}
	if !ok {
		r.failRun++
		return
	}
	r.failRun = 0
	if r.stride > 0 && i%r.stride == 0 {
		r.samples = append(r.samples, sample{rd, bytes.Clone(r.c.buf.Bytes())})
	}
	if r.tr != nil && measured {
		r.tr.Record("http"+rd.Endpoint, r.parent, id, t0, t1)
		r.addCost(rd.Endpoint)
	}
}

func (r *reader) addCost(endpoint string) {
	var resp struct {
		Cost semsim.Cost `json:"cost"`
	}
	if json.Unmarshal(r.c.buf.Bytes(), &resp) != nil {
		return
	}
	r.cost.reads++
	if endpoint == "/topk" {
		r.cost.topk++
		r.cost.topkPairs += resp.Cost.Pairs
	}
	r.cost.Add(&resp.Cost)
}

// writeResult is what the write stream measured.
type writeResult struct {
	okAt []bool // per batch: committed
	ok   int
}

// writer commits mutation batches one after another on its connection.
type writer struct {
	c      *conn
	bodies [][]byte
	tr     *bench.Tracer
	parent int32
}

func (w *writer) run(res *writeResult) {
	for j, body := range w.bodies {
		id := fmt.Sprintf("sb-w%d", j)
		sent := time.Now()
		ok := w.c.call(http.MethodPost, "/mutate", id, body)
		w.tr.Record("http/mutate", w.parent, id, sent, time.Now())
		res.okAt = append(res.okAt, ok)
		if ok {
			res.ok++
		}
	}
}
