package quality

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"semsim/internal/obs"
	"semsim/internal/obs/flight"
)

func TestQueryLogNilIsOff(t *testing.T) {
	if NewQueryLog(nil, obs.NewRegistry()) != nil {
		t.Fatal("nil writer should yield the nil (disabled) log")
	}
	var l *QueryLog
	l.Log(&flight.Record{Endpoint: "/query"}) // must not panic
}

func TestQueryLogWritesNDJSON(t *testing.T) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	l := NewQueryLog(&buf, reg)
	recs := []flight.Record{
		{Seq: 1, Endpoint: "/query", U: "a", V: "b", Status: 200, Score: 0.25, LatencyNS: 1000},
		{Seq: 2, Endpoint: "/explain", U: "a", V: "b", Status: 200, CIWidth: 0.1},
		{Seq: 3, Endpoint: "/query", Status: 404, ErrClass: "client", Error: "unknown node"},
	}
	for i := range recs {
		l.Log(&recs[i])
	}

	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var rec flight.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v: %s", n+1, err, sc.Text())
		}
		if n < len(recs) && rec != recs[n] {
			t.Errorf("line %d decodes to %+v, want %+v", n+1, rec, recs[n])
		}
		n++
	}
	if n != 3 {
		t.Fatalf("wrote %d lines, want 3", n)
	}
	snap := reg.Snapshot()
	if snap.Counters["semsim_querylog_events_total"] != 3 {
		t.Errorf("events counter = %d, want 3", snap.Counters["semsim_querylog_events_total"])
	}
	if snap.Counters["semsim_querylog_write_errors_total"] != 0 {
		t.Errorf("write errors = %d, want 0", snap.Counters["semsim_querylog_write_errors_total"])
	}
}

func TestQueryLogPreservesExplicitTime(t *testing.T) {
	var buf bytes.Buffer
	l := NewQueryLog(&buf, nil)
	want := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC).UnixNano()
	l.Log(&flight.Record{Endpoint: "/query", TimeNS: want})
	var rec flight.Record
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.TimeNS != want {
		t.Errorf("TimeNS = %d, want %d", rec.TimeNS, want)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestQueryLogCountsWriteFailures(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewQueryLog(failWriter{}, reg)
	l.Log(&flight.Record{Endpoint: "/query"})
	l.Log(&flight.Record{Endpoint: "/query"})
	snap := reg.Snapshot()
	if snap.Counters["semsim_querylog_write_errors_total"] != 2 {
		t.Errorf("write errors = %d, want 2", snap.Counters["semsim_querylog_write_errors_total"])
	}
	if snap.Counters["semsim_querylog_events_total"] != 0 {
		t.Errorf("events = %d, want 0 (failed writes must not count as events)", snap.Counters["semsim_querylog_events_total"])
	}
}

func TestQueryLogConcurrent(t *testing.T) {
	var buf bytes.Buffer
	l := NewQueryLog(&buf, nil)
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 50; j++ {
				l.Log(&flight.Record{Endpoint: "/query", Status: 200})
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("interleaved write corrupted line %d: %s", n+1, sc.Text())
		}
		n++
	}
	if n != 200 {
		t.Errorf("got %d lines, want 200", n)
	}
}
