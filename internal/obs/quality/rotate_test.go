package quality

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"semsim/internal/obs"
	"semsim/internal/obs/flight"
)

func TestRotatingFileNoRotationUnderLimit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.ndjson")
	rf, err := OpenRotatingFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	for i := 0; i < 10; i++ {
		if _, err := rf.Write([]byte("0123456789\n")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path + ".1"); !os.IsNotExist(err) {
		t.Fatal("rotated below the limit")
	}
	data, _ := os.ReadFile(path)
	if len(data) != 110 {
		t.Fatalf("file holds %d bytes, want 110", len(data))
	}
}

func TestRotatingFileRotatesAtLimit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.ndjson")
	rf, err := OpenRotatingFile(path, 25)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	write := func(s string) {
		t.Helper()
		if _, err := rf.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	write("aaaaaaaaaa\n") // 11 bytes
	write("bbbbbbbbbb\n") // 22 bytes
	write("cccccccccc\n") // would be 33: rotates first

	gen1, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatalf("no .1 generation: %v", err)
	}
	if string(gen1) != "aaaaaaaaaa\nbbbbbbbbbb\n" {
		t.Fatalf(".1 holds %q", gen1)
	}
	cur, _ := os.ReadFile(path)
	if string(cur) != "cccccccccc\n" {
		t.Fatalf("current holds %q", cur)
	}

	// Next rotation replaces the old generation — only one is kept.
	write("dddddddddd\n")
	write("eeeeeeeeee\n") // would be 33: rotates again
	gen1, _ = os.ReadFile(path + ".1")
	if string(gen1) != "cccccccccc\ndddddddddd\n" {
		t.Fatalf("after second rotation .1 holds %q", gen1)
	}
	cur, _ = os.ReadFile(path)
	if string(cur) != "eeeeeeeeee\n" {
		t.Fatalf("after second rotation current holds %q", cur)
	}
}

// TestRotatingFileKeepsNGenerations drives enough rotations through a
// 3-generation writer to cycle the whole chain: generations shift
// path.1 → path.2 → path.3, the oldest falls off, and the content order
// stays newest-first across the chain.
func TestRotatingFileKeepsNGenerations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.ndjson")
	rf, err := OpenRotatingFileGens(path, 25, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	write := func(s string) {
		t.Helper()
		if _, err := rf.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	// Each letter writes 22 bytes over a 25-byte cap: every second write
	// rotates, so five pairs produce four rotations.
	for _, c := range []string{"a", "b", "c", "d", "e"} {
		write(strings.Repeat(c, 10) + "\n")
		write(strings.Repeat(c, 10) + "\n")
	}
	read := func(p string) string {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		return string(data)
	}
	if got := read(path); got != strings.Repeat("e", 10)+"\n"+strings.Repeat("e", 10)+"\n" {
		t.Fatalf("live file holds %q", got)
	}
	for i, want := range []string{"d", "c", "b"} {
		gen := read(fmt.Sprintf("%s.%d", path, i+1))
		if gen != strings.Repeat(want, 10)+"\n"+strings.Repeat(want, 10)+"\n" {
			t.Fatalf("generation %d holds %q, want %s-lines", i+1, gen, want)
		}
	}
	// The a-generation fell off the end of the chain.
	if _, err := os.Stat(path + ".4"); !os.IsNotExist(err) {
		t.Fatal("a fourth generation exists beyond maxGens")
	}
}

// TestOpenRotatingFileGensClamps pins the compatibility contract: the
// one-generation constructor and a clamped maxGens < 1 behave like the
// historical single-.1 writer.
func TestOpenRotatingFileGensClamps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.ndjson")
	rf, err := OpenRotatingFileGens(path, 25, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	for _, c := range []string{"a", "b", "c"} {
		if _, err := rf.Write([]byte(strings.Repeat(c, 22) + "\n")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatal("clamped writer never rotated to .1")
	}
	if _, err := os.Stat(path + ".2"); !os.IsNotExist(err) {
		t.Fatal("clamped writer produced a second generation")
	}
}

func TestRotatingFileOversizeSingleWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.ndjson")
	rf, err := OpenRotatingFile(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	big := strings.Repeat("x", 32) + "\n"
	if _, err := rf.Write([]byte(big)); err != nil {
		t.Fatal(err)
	}
	// Empty file + oversize write: written in place, no empty generation.
	if _, err := os.Stat(path + ".1"); !os.IsNotExist(err) {
		t.Fatal("oversize first write should not rotate an empty file")
	}
	// The next write rotates the oversize file out.
	if _, err := rf.Write([]byte("y\n")); err != nil {
		t.Fatal(err)
	}
	gen1, _ := os.ReadFile(path + ".1")
	if string(gen1) != big {
		t.Fatal("oversize line did not move to .1")
	}
}

func TestRotatingFileResumesExistingSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.ndjson")
	if err := os.WriteFile(path, bytes.Repeat([]byte("z"), 20), 0o644); err != nil {
		t.Fatal(err)
	}
	rf, err := OpenRotatingFile(path, 25)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	// 20 existing + 10 new > 25: the pre-existing content rotates.
	if _, err := rf.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	gen1, err := os.ReadFile(path + ".1")
	if err != nil || len(gen1) != 20 {
		t.Fatalf("existing content not rotated: %v, %d bytes", err, len(gen1))
	}
}

// TestQueryLogOverRotatingFile is the integration shape serve uses:
// the NDJSON query log writing through a rotating sink. Every line in
// both generations must stay whole and parseable, and the event counter
// must account for all of them.
func TestQueryLogOverRotatingFile(t *testing.T) {
	// A fixed record keeps every line the same length, so the rotation
	// point is deterministic: with maxBytes = 12 lines, 20 events rotate
	// exactly once (12 into .1, 8 into the live file).
	ev := flight.Record{
		TimeNS:   timeFixed(t).UnixNano(),
		Endpoint: "/query", RequestID: "req-1", U: "a", V: "b",
		Status: 200, LatencyNS: 2000,
	}
	line, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	lineLen := int64(len(line) + 1)

	path := filepath.Join(t.TempDir(), "q.ndjson")
	rf, err := OpenRotatingFile(path, 12*lineLen)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	reg := obs.NewRegistry()
	qlog := NewQueryLog(rf, reg)
	for i := 0; i < 20; i++ {
		qlog.Log(&ev)
	}
	if got := reg.Counter("semsim_querylog_events_total", "").Value(); got != 20 {
		t.Fatalf("events counter = %d, want 20", got)
	}
	if got := reg.Counter("semsim_querylog_write_errors_total", "").Value(); got != 0 {
		t.Fatalf("write errors = %d", got)
	}
	total := 0
	for _, p := range []string{path, path + ".1"} {
		f, err := os.Open(p)
		if err != nil {
			t.Fatalf("open %s: %v", p, err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var ev flight.Record
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("%s: torn line %q: %v", p, sc.Text(), err)
			}
			if ev.RequestID != "req-1" {
				t.Fatalf("%s: request_id lost: %+v", p, ev)
			}
			total++
		}
		f.Close()
	}
	if total != 20 {
		t.Fatalf("generations hold %d events, want 20", total)
	}
}

func timeFixed(t *testing.T) (ts time.Time) {
	t.Helper()
	return time.Date(2026, 8, 7, 12, 0, 0, 123456789, time.UTC)
}

// TestQueryLogWriteFailureThroughRotation covers the existing
// write-failure counter path when the rotating sink itself fails:
// events are dropped and counted, the handler never sees an error.
func TestQueryLogWriteFailureThroughRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "q.ndjson")
	if err := os.Mkdir(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	rf, err := OpenRotatingFile(path, 30)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	qlog := NewQueryLog(rf, reg)
	qlog.Log(&flight.Record{Endpoint: "/query", Status: 200})
	if got := reg.Counter("semsim_querylog_events_total", "").Value(); got != 1 {
		t.Fatalf("first event not logged: %d", got)
	}
	// Yank the directory out from under the log: the pending rotation
	// cannot rename or reopen, so the next write fails.
	if err := os.RemoveAll(filepath.Dir(path)); err != nil {
		t.Fatal(err)
	}
	qlog.Log(&flight.Record{Endpoint: "/query", Status: 200, Error: strings.Repeat("x", 64)})
	if got := reg.Counter("semsim_querylog_write_errors_total", "").Value(); got == 0 {
		t.Fatal("write failure was not counted")
	}
	rf.Close()
}
