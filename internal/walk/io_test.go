package walk

import (
	"bytes"
	"strings"
	"testing"

	"semsim/internal/hin"
)

func TestIndexRoundTrip(t *testing.T) {
	g := braid(t, 11)
	ix, err := Build(g, Options{NumWalks: 7, Length: 9, Seed: 13})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	loaded, err := Load(&buf, g)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.NumWalks() != 7 || loaded.Length() != 9 {
		t.Fatalf("dims = %d/%d", loaded.NumWalks(), loaded.Length())
	}
	for v := 0; v < g.NumNodes(); v++ {
		for i := 0; i < 7; i++ {
			a := ix.Walk(hin.NodeID(v), i)
			b := loaded.Walk(hin.NodeID(v), i)
			for s := range a {
				if a[s] != b[s] {
					t.Fatalf("walk (%d,%d) differs at step %d", v, i, s)
				}
			}
		}
	}
}

func TestLoadRejectsWrongGraph(t *testing.T) {
	g := braid(t, 11)
	ix, err := Build(g, Options{NumWalks: 3, Length: 4, Seed: 1})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	other := braid(t, 12)
	if _, err := Load(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Error("Load accepted an index for a different graph")
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	g := braid(t, 5)
	ix, err := Build(g, Options{NumWalks: 2, Length: 3, Seed: 1})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// The byte offsets below are specific to the flat v2 layout.
	var buf bytes.Buffer
	if _, err := ix.WriteToFormat(&buf, FormatV2); err != nil {
		t.Fatalf("WriteToFormat: %v", err)
	}
	data := buf.Bytes()

	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { c := append([]byte(nil), b...); c[0] = 'X'; return c }},
		{"truncated header", func(b []byte) []byte { return b[:10] }},
		{"truncated walks", func(b []byte) []byte { return b[:len(b)-3] }},
		{"bad version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[4] = 99
			return c
		}},
		{"corrupt checksum word", func(b []byte) []byte {
			// Offset 24 holds the crc32 in the v2 layout.
			c := append([]byte(nil), b...)
			c[24] ^= 0xFF
			return c
		}},
		{"out of range step", func(b []byte) []byte {
			// First walk step is at offset 4+6*4 = 28 (the start node);
			// set it to a huge value. Caught by the step-range check
			// before the checksum is even compared.
			c := append([]byte(nil), b...)
			c[28] = 0xEE
			c[29] = 0xEE
			c[30] = 0x00
			c[31] = 0x00
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(bytes.NewReader(tc.mut(data)), g); err == nil {
				t.Fatal("Load accepted corrupt input")
			}
		})
	}
	if _, err := Load(strings.NewReader(""), g); err == nil {
		t.Error("Load accepted empty input")
	}
}

// legacyBytes rewrites a v2 serialization as the retired v1 layout: same
// header without the crc32 word, version stamped 1. Load must reject it.
func legacyBytes(v2 []byte) []byte {
	c := make([]byte, 0, len(v2)-4)
	c = append(c, v2[:4]...)   // magic
	c = append(c, 1, 0, 0, 0)  // version 1
	c = append(c, v2[8:24]...) // n, nw, t, edges
	c = append(c, v2[28:]...)  // walks, no checksum
	return c
}

// TestLoadChecksum pins the v2 checksum behavior: a single flipped bit
// anywhere in the walk payload (that stays in node range) is rejected
// with a checksum error, and the same payload in the retired,
// checksum-free v1 layout is rejected as an unsupported version.
func TestLoadChecksum(t *testing.T) {
	g := braid(t, 10)
	ix, err := Build(g, Options{NumWalks: 4, Length: 5, Seed: 7})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteToFormat(&buf, FormatV2); err != nil {
		t.Fatalf("WriteToFormat: %v", err)
	}
	data := buf.Bytes()

	// Flip the low bit of one payload word. A low-bit flip maps 0..9
	// onto 0..9, so the mutated step is still a valid node ID for the
	// 10-node graph and only the checksum can catch it. (Stop steps
	// cannot occur: every braid node has in-degree 2.)
	bent := append([]byte(nil), data...)
	bent[len(bent)-4] ^= 0x01
	_, err = Load(bytes.NewReader(bent), g)
	if err == nil {
		t.Fatal("Load accepted a bit-flipped payload")
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("want checksum mismatch error, got: %v", err)
	}

	// The untouched file loads; its v1 rewrite, intact or bit-flipped,
	// is refused before any payload is read: with no checksum, v1 could
	// not tell the two apart.
	if _, err := Load(bytes.NewReader(data), g); err != nil {
		t.Fatalf("Load v2: %v", err)
	}
	for _, legacy := range [][]byte{legacyBytes(data), legacyBytes(bent)} {
		_, err := Load(bytes.NewReader(legacy), g)
		if err == nil || !strings.Contains(err.Error(), "unsupported index version 1") {
			t.Fatalf("want unsupported index version 1 error, got: %v", err)
		}
	}

	// Truncations are reported as such, not as checksum noise.
	_, err = Load(bytes.NewReader(data[:len(data)-6]), g)
	if err == nil || !strings.Contains(err.Error(), "truncated walk data") {
		t.Fatalf("want truncated walk data error, got: %v", err)
	}
}
