// Package flight is an always-on flight recorder: a preallocated ring of
// wide-event records — one per served request or mutation commit — that
// a debug endpoint can dump as NDJSON at any moment. It answers
// the incident question "what exactly were the last few thousand
// requests" without log shipping, sampling bias, or per-request
// allocation.
//
// Concurrency design: a single atomic sequence counter assigns each
// Record call a unique slot (seq modulo ring size), and a per-slot mutex
// latches the copy into that slot. Writers to *different* slots never
// contend; two writers lapping onto the same slot (ring wrapped a full
// generation between them) serialize briefly. Dump locks each slot just
// long enough to copy it out, so a dump never blocks the whole ring. A
// true seqlock (retry-on-odd reads over non-atomic slot memory) would be
// faster still but is indistinguishable from a data race to the race
// detector, and the repo's tier-2 gate runs everything under -race — the
// per-slot mutex keeps the recorder honestly race-free at a cost of a
// few ns per request.
//
// Nil is off, matching internal/obs: every method no-ops on a nil *Ring.
package flight

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"semsim/internal/obs"
)

// Record is the one wide event of a served request or mutation commit:
// what was asked, what answered it, how it ended, where its time went
// and what work it did. The flight ring keeps it, and serve's query log
// writes the same value as its line. Times are unix nanoseconds and
// durations raw nanoseconds (not time.Time / time.Duration) so the
// struct is flat, comparable, and marshals without custom encoders.
// Cost is embedded by value: the ring preallocates it with the slot.
type Record struct {
	// Seq is the global 1-based sequence number, assigned by the ring.
	Seq uint64 `json:"seq"`
	// TimeNS is the request's start time, unix nanoseconds.
	TimeNS int64 `json:"time_ns"`
	// Endpoint is the serving endpoint ("/query", "/topk", "/mutate", ...).
	Endpoint string `json:"endpoint"`
	// RequestID is the X-Semsim-Request ID the caller saw.
	RequestID string `json:"request_id"`
	// Epoch is the index epoch the request was answered from (the new
	// epoch, for a commit).
	Epoch uint64 `json:"epoch"`
	// Backend is the engine backend that answered.
	Backend string `json:"backend,omitempty"`
	// Strategy is the planner strategy for top-k requests ("" otherwise).
	Strategy string `json:"strategy,omitempty"`
	// U, V and K are the resolved query: node names and the top-k size.
	U string `json:"u,omitempty"`
	V string `json:"v,omitempty"`
	K int    `json:"k,omitempty"`
	// Status is the HTTP status code (or 0 for non-HTTP events).
	Status int `json:"status"`
	// ErrClass classifies failures: "" ok, "client" 4xx, "server" 5xx.
	ErrClass string `json:"err_class,omitempty"`
	// Error is the error message the response carried.
	Error string `json:"error,omitempty"`
	// Score is a pair's estimate, Results the number of top-k hits and
	// CIWidth the width of /explain's confidence interval.
	Score   float64 `json:"score,omitempty"`
	Results int     `json:"results,omitempty"`
	CIWidth float64 `json:"ci_width,omitempty"`
	// LatencyNS is the request latency in nanoseconds.
	LatencyNS int64 `json:"latency_ns"`
	// The phase split of LatencyNS, in nanoseconds: ResolveNS runs from
	// the request's start through name resolution (on /mutate: decoding
	// and staging the batch, without the wait for the mutation lock),
	// ScoreNS is the query work, CommitNS a mutation's commit and
	// EncodeNS the response encoding. Each is stamped when its phase
	// completes, so a phase the request did not complete is 0.
	ResolveNS int64 `json:"resolve_ns,omitempty"`
	ScoreNS   int64 `json:"score_ns,omitempty"`
	CommitNS  int64 `json:"commit_ns,omitempty"`
	EncodeNS  int64 `json:"encode_ns,omitempty"`
	// Cost is the request's cost accounting (zero when accounting is
	// off or the endpoint does no query work).
	Cost obs.Cost `json:"cost"`
}

// slot is one ring cell. The mutex latches writers lapping each other
// and Dump's copy-out; see the package comment for why this is a mutex
// and not a seqlock.
type slot struct {
	mu  sync.Mutex
	rec Record
	set bool
}

// Ring is the fixed-size flight recorder. Safe for concurrent Record and
// Dump from any number of goroutines.
type Ring struct {
	seq   atomic.Uint64
	slots []slot
}

// New builds a ring holding the last n records. n <= 0 returns nil, the
// disabled recorder.
func New(n int) *Ring {
	if n <= 0 {
		return nil
	}
	return &Ring{slots: make([]slot, n)}
}

// Record assigns rec.Seq and stores a copy of *rec in the ring,
// overwriting the oldest entry once the ring has wrapped. Zero
// allocations; no-op on a nil ring, which leaves rec.Seq alone.
func (r *Ring) Record(rec *Record) {
	if r == nil {
		return
	}
	rec.Seq = r.seq.Add(1)
	s := &r.slots[(rec.Seq-1)%uint64(len(r.slots))]
	s.mu.Lock()
	s.rec = *rec
	s.set = true
	s.mu.Unlock()
}

// Len reports how many records the ring currently holds (0 on nil).
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	n := r.seq.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Cap reports the ring capacity (0 on nil).
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Snapshot copies the current records out of the ring, oldest first.
// Records written while the snapshot walks the slots may or may not be
// included — each slot is internally consistent (copied under its
// latch), which is the scrape-consistency contract the rest of
// internal/obs follows. Returns nil on a nil ring.
func (r *Ring) Snapshot() []Record {
	if r == nil {
		return nil
	}
	out := make([]Record, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.set {
			out = append(out, s.rec)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dump writes the current records to w as NDJSON, oldest first. Returns
// the number of records written. No-op on a nil ring.
func (r *Ring) Dump(w io.Writer) (int, error) {
	if r == nil {
		return 0, nil
	}
	recs := r.Snapshot()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return 0, err
		}
	}
	return len(recs), bw.Flush()
}

// ClassifyStatus maps an HTTP status code to a Record.ErrClass.
func ClassifyStatus(code int) string {
	switch {
	case code >= 500:
		return "server"
	case code >= 400:
		return "client"
	default:
		return ""
	}
}
