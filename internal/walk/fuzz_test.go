package walk

import (
	"bytes"
	"testing"

	"semsim/internal/hin"
)

// fuzzGraph is the fixed target graph for the IO fuzzers: Load validates
// the stored header against a concrete graph, so the fuzzer holds the
// graph constant and mutates bytes. Same shape as braid(t, n).
func fuzzGraph(n int) *hin.Graph {
	b := hin.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('a'+i)), "t")
	}
	for i := 0; i < n; i++ {
		b.AddEdge(hin.NodeID(i), hin.NodeID((i+1)%n), "e", 1)
		b.AddEdge(hin.NodeID(i), hin.NodeID((i+2)%n), "e", 1)
	}
	return b.MustBuild()
}

// seedCorpus serializes a few real indexes over the fuzz graph so the
// fuzzer starts from well-formed inputs and mutates from there.
func seedCorpus(f *testing.F, g *hin.Graph) {
	f.Helper()
	for _, cfg := range []Options{
		{NumWalks: 1, Length: 1, Seed: 1},
		{NumWalks: 3, Length: 4, Seed: 2},
		{NumWalks: 8, Length: 7, Seed: 3},
	} {
		ix, err := Build(g, cfg)
		if err != nil {
			f.Fatalf("Build: %v", err)
		}
		// The default (v3, block-compressed) layout.
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			f.Fatalf("WriteTo: %v", err)
		}
		f.Add(buf.Bytes())
		// The flat checksummed v2 layout, which Load must keep
		// accepting, and its retired v1 (checksum-free) rewrite, which
		// it must reject without panicking; mutants exercise the
		// per-format paths.
		var v2 bytes.Buffer
		if _, err := ix.WriteToFormat(&v2, FormatV2); err != nil {
			f.Fatalf("WriteToFormat: %v", err)
		}
		f.Add(v2.Bytes())
		f.Add(legacyBytes(v2.Bytes()))
	}
	// Hostile seeds: truncations and headers advertising huge dimensions
	// in every layout — these must be rejected by validation, not by
	// attempting the allocation they advertise.
	f.Add([]byte{})
	f.Add([]byte("SSWK"))
	f.Add([]byte("SSWK\x01\x00\x00\x00\x0b\x00\x00\x00\xff\xff\xff\x7f\xff\xff\xff\x7f\x16\x00\x00\x00"))
	f.Add([]byte("SSWK\x02\x00\x00\x00\x0b\x00\x00\x00\xff\xff\xff\x7f\xff\xff\xff\x7f\x16\x00\x00\x00\x00\x00\x00\x00"))
	for _, hostile := range hostileV3Seeds(g) {
		f.Add(hostile)
	}
}

// FuzzLoadRoundTrip is the Write -> Read -> Write harness for the binary
// index format: Load must never panic on arbitrary bytes, and whenever it
// accepts an input, re-serializing the loaded index and loading that must
// reproduce the same walks byte-for-byte (the round-trip fixpoint).
func FuzzLoadRoundTrip(f *testing.F) {
	g := fuzzGraph(11)
	seedCorpus(f, g)
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := Load(bytes.NewReader(data), g)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		// Accepted: the index must be internally consistent...
		if ix.NumWalks() < 1 || ix.Length() < 1 {
			t.Fatalf("Load accepted degenerate dims %d/%d", ix.NumWalks(), ix.Length())
		}
		n := g.NumNodes()
		for v := 0; v < n; v++ {
			for i := 0; i < ix.NumWalks(); i++ {
				w := ix.Walk(hin.NodeID(v), i)
				for s, step := range w {
					if step != Stop && (step < 0 || int(step) >= n) {
						t.Fatalf("Load accepted out-of-range step %d at (%d,%d,%d)", step, v, i, s)
					}
				}
			}
		}
		// ...and serialize to a byte-identical fixpoint.
		var first bytes.Buffer
		if _, err := ix.WriteTo(&first); err != nil {
			t.Fatalf("WriteTo after Load: %v", err)
		}
		reloaded, err := Load(bytes.NewReader(first.Bytes()), g)
		if err != nil {
			t.Fatalf("Load rejected its own output: %v", err)
		}
		var second bytes.Buffer
		if _, err := reloaded.WriteTo(&second); err != nil {
			t.Fatalf("WriteTo after reload: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("Write -> Read -> Write is not byte-identical")
		}
	})
}

// TestFuzzSeedsPassWithoutFuzzing runs the seed corpus as a plain unit
// test so the round-trip property is exercised on every `go test` (the
// CI race tier included), not only when -fuzz is requested.
func TestFuzzSeedsPassWithoutFuzzing(t *testing.T) {
	g := fuzzGraph(11)
	ix, err := Build(g, Options{NumWalks: 8, Length: 7, Seed: 3})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("round trip is not byte-identical")
	}
	// The v2 serialization loads and re-serializes (upgrading to v3) to
	// the same fixpoint; its retired v1 rewrite is rejected.
	var v2 bytes.Buffer
	if _, err := ix.WriteToFormat(&v2, FormatV2); err != nil {
		t.Fatalf("WriteToFormat: %v", err)
	}
	fromV2, err := Load(bytes.NewReader(v2.Bytes()), g)
	if err != nil {
		t.Fatalf("Load v2: %v", err)
	}
	var upgraded bytes.Buffer
	if _, err := fromV2.WriteTo(&upgraded); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), upgraded.Bytes()) {
		t.Fatal("v2 round trip does not upgrade to the same v3 bytes")
	}
	if _, err := Load(bytes.NewReader(legacyBytes(v2.Bytes())), g); err == nil {
		t.Fatal("Load accepted the retired v1 layout")
	}
	// Hostile huge-dimension headers must be rejected, not allocated, in
	// every layout.
	huge := [][]byte{
		[]byte("SSWK\x01\x00\x00\x00\x0b\x00\x00\x00\xff\xff\xff\x7f\xff\xff\xff\x7f\x16\x00\x00\x00"),
		[]byte("SSWK\x02\x00\x00\x00\x0b\x00\x00\x00\xff\xff\xff\x7f\xff\xff\xff\x7f\x16\x00\x00\x00\x00\x00\x00\x00"),
	}
	huge = append(huge, hostileV3Seeds(g)...)
	for _, h := range huge {
		if _, err := Load(bytes.NewReader(h), g); err == nil {
			t.Fatal("Load accepted a hostile header")
		}
	}
}
