package flight

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"semsim/internal/obs"
)

// withSteps builds a Cost whose WalkSteps field carries a marker value,
// used to detect torn slot copies in the concurrency test.
func withSteps(n int64) obs.Cost { return obs.Cost{WalkSteps: n} }

func TestNilRingIsOff(t *testing.T) {
	var r *Ring
	r.Record(&Record{Endpoint: "/query"})
	if got := r.Len(); got != 0 {
		t.Fatalf("nil ring Len = %d, want 0", got)
	}
	if got := r.Cap(); got != 0 {
		t.Fatalf("nil ring Cap = %d, want 0", got)
	}
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil ring Snapshot = %v, want nil", got)
	}
	var buf bytes.Buffer
	n, err := r.Dump(&buf)
	if n != 0 || err != nil || buf.Len() != 0 {
		t.Fatalf("nil ring Dump = (%d, %v, %q)", n, err, buf.String())
	}
	if New(0) != nil || New(-1) != nil {
		t.Fatal("New with nonpositive capacity must return nil")
	}
}

func TestRecordAndWraparound(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		rec := Record{Endpoint: "/query", Status: 200, LatencyNS: int64(i)}
		r.Record(&rec)
		if rec.Seq != uint64(i+1) {
			t.Fatalf("Record wrote back seq %d, want %d", rec.Seq, i+1)
		}
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len after wrap = %d, want 4", got)
	}
	recs := r.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(recs))
	}
	// The ring keeps the newest 4 of 10 records (seqs 7..10), oldest
	// first.
	for i, rec := range recs {
		wantSeq := uint64(7 + i)
		if rec.Seq != wantSeq {
			t.Fatalf("rec[%d].Seq = %d, want %d", i, rec.Seq, wantSeq)
		}
		if rec.LatencyNS != int64(wantSeq-1) {
			t.Fatalf("rec[%d].LatencyNS = %d, want %d", i, rec.LatencyNS, wantSeq-1)
		}
	}
}

func TestDumpNDJSON(t *testing.T) {
	r := New(8)
	r.Record(&Record{Endpoint: "/query", RequestID: "req-1", Status: 200})
	r.Record(&Record{Endpoint: "/mutate", RequestID: "req-2", Status: 409,
		ErrClass: ClassifyStatus(409)})
	var buf bytes.Buffer
	n, err := r.Dump(&buf)
	if err != nil || n != 2 {
		t.Fatalf("Dump = (%d, %v), want (2, nil)", n, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("Dump produced %d lines, want 2", len(lines))
	}
	var rec Record
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("Dump line 2 is not JSON: %v", err)
	}
	if rec.Endpoint != "/mutate" || rec.RequestID != "req-2" || rec.ErrClass != "client" {
		t.Fatalf("round-tripped record = %+v", rec)
	}
}

func TestRecordZeroAllocs(t *testing.T) {
	rec := Record{Endpoint: "/topk", RequestID: "req-alloc", Epoch: 3,
		Backend: "mc", Strategy: "collision", U: "ada", K: 10, Status: 200,
		Results: 10, LatencyNS: 1234, ResolveNS: 100, ScoreNS: 900,
		EncodeNS: 200, Cost: withSteps(42)}

	var off *Ring
	if n := testing.AllocsPerRun(200, func() { off.Record(&rec) }); n != 0 {
		t.Fatalf("disabled Record allocates %v/op, want 0", n)
	}

	on := New(16)
	if n := testing.AllocsPerRun(200, func() { on.Record(&rec) }); n != 0 {
		t.Fatalf("enabled Record allocates %v/op, want 0", n)
	}
}

// TestConcurrentRecordDump hammers one ring from writer and dumper
// goroutines; run under -race (ci.sh tier 2) this is the recorder's
// data-race gate. Correctness check: every snapshot is internally
// consistent — Cost.WalkSteps mirrors LatencyNS in every written record,
// so a torn slot copy shows up as a field mismatch.
func TestConcurrentRecordDump(t *testing.T) {
	r := New(32)
	const writers = 8
	const perWriter = 500
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				lat := int64(w*perWriter + i)
				r.Record(&Record{
					Endpoint:  "/query",
					Status:    200,
					LatencyNS: lat,
					Cost:      withSteps(lat),
				})
			}
		}(w)
	}
	stop := make(chan struct{})
	dumperDone := make(chan struct{})
	go func() {
		defer close(dumperDone)
		for {
			for _, rec := range r.Snapshot() {
				if rec.Cost.WalkSteps != rec.LatencyNS {
					t.Errorf("torn record: latency %d, walk steps %d",
						rec.LatencyNS, rec.Cost.WalkSteps)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	writerWG.Wait()
	close(stop)
	<-dumperDone
	if got := r.Len(); got != 32 {
		t.Fatalf("Len = %d, want 32", got)
	}
	recs := r.Snapshot()
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("snapshot not seq-ordered at %d: %d then %d",
				i, recs[i-1].Seq, recs[i].Seq)
		}
	}
}

func TestClassifyStatus(t *testing.T) {
	cases := map[int]string{200: "", 0: "", 302: "", 400: "client",
		404: "client", 409: "client", 500: "server", 503: "server"}
	for code, want := range cases {
		if got := ClassifyStatus(code); got != want {
			t.Fatalf("ClassifyStatus(%d) = %q, want %q", code, got, want)
		}
	}
}
