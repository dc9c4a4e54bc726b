package walk

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"semsim/internal/hin"
)

// v3Container assembles a syntactically well-formed v3 file (valid
// CRCs, consistent directory) around attacker-chosen block payloads, so
// corruption tests reach the varint decoder instead of bouncing off the
// checksums.
func v3Container(t testing.TB, g *hin.Graph, nw, tLen, bn int, payloads [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	vw, err := newV3Writer(&buf, g.NumNodes(), nw, tLen, g.NumEdges(), bn, len(payloads))
	if err != nil {
		t.Fatalf("newV3Writer: %v", err)
	}
	for _, p := range payloads {
		if err := vw.writeBlock(p); err != nil {
			t.Fatalf("writeBlock: %v", err)
		}
	}
	if _, err := vw.finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	return buf.Bytes()
}

// patchV3Block0 mutates block 0's payload in place and restamps the
// block CRC, so the corruption survives the checksum and reaches the
// decoder.
func patchV3Block0(data []byte, mut func(payload []byte)) []byte {
	c := append([]byte(nil), data...)
	plen := binary.LittleEndian.Uint32(c[v3HeaderBytes:])
	payload := c[v3HeaderBytes+8 : v3HeaderBytes+8+int(plen)]
	mut(payload)
	binary.LittleEndian.PutUint32(c[v3HeaderBytes+4:], crc32.ChecksumIEEE(payload))
	return c
}

// hostileV3Seeds returns v3 inputs whose headers or length words claim
// far more data than they carry. Load must reject every one of them by
// validation — allocating what they advertise would be gigabytes. Also
// used as fuzz seeds.
func hostileV3Seeds(g *hin.Graph) [][]byte {
	le := binary.LittleEndian
	hdr := func(words ...uint32) []byte {
		b := []byte(indexMagic)
		for _, w := range words {
			b = le.AppendUint32(b, w)
		}
		return b
	}
	n, e := uint32(g.NumNodes()), uint32(g.NumEdges())
	// Dimensions beyond the caps: rejected by checkDims.
	overCap := hdr(FormatV3, n, 0x7fffffff, 0x7fffffff, e, 1, n)
	// Dimensions exactly at the caps with a 4-byte block: the per-walk
	// plausibility check rejects it before sizing any decode buffer.
	atCap := hdr(FormatV3, n, maxLoadWalks, 8, e, 1, n)
	atCap = le.AppendUint32(atCap, 4) // payloadLen
	atCap = le.AppendUint32(atCap, crc32.ChecksumIEEE([]byte{0, 0, 0, 0}))
	atCap = append(atCap, 0, 0, 0, 0)
	// Sane dimensions, payloadLen word claiming ~4 GB.
	hugeLen := hdr(FormatV3, n, 2, 3, e, int32max, 1)
	hugeLen = le.AppendUint32(hugeLen, 0xFFFFFF00)
	hugeLen = le.AppendUint32(hugeLen, 0)
	return [][]byte{overCap, atCap, hugeLen}
}

const int32max = 0x7fffffff

func TestLoadV3DistinctErrors(t *testing.T) {
	g := fuzzGraph(11)
	n := g.NumNodes()
	// One block of 11 nodes x 1 walk, stride 4. A payload of n 0x01
	// bytes is the all-stopped index; each case perturbs it.
	ones := func(k int) []byte { return bytes.Repeat([]byte{0x01}, k) }
	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{
			"truncated varint stream",
			v3Container(t, g, 1, 3, n, [][]byte{append(ones(n-1), 0x80)}),
			"truncated varint stream",
		},
		{
			"payload shorter than walk count",
			v3Container(t, g, 1, 3, n, [][]byte{ones(n - 1)}),
			"truncated varint stream",
		},
		{
			"corrupt live length",
			v3Container(t, g, 1, 3, n, [][]byte{append([]byte{0x05}, ones(n-1)...)}),
			"corrupt live length",
		},
		{
			"step code out of range",
			v3Container(t, g, 1, 3, n, [][]byte{append([]byte{0x02, 0x70}, ones(n-1)...)}),
			"step code 112 out of range",
		},
		{
			"escaped step out of range",
			v3Container(t, g, 1, 3, n, [][]byte{append([]byte{0x02, 0x02, 0x7F}, ones(n-1)...)}),
			"corrupt escaped step",
		},
		{
			"trailing bytes",
			v3Container(t, g, 1, 3, n, [][]byte{ones(n + 1)}),
			"trailing bytes",
		},
		{
			"oversized payload word",
			hostileV3Seeds(g)[2],
			"oversized payload",
		},
		{
			"dims over cap",
			hostileV3Seeds(g)[0],
			"corrupt header",
		},
		{
			"dims at cap, body implausible",
			hostileV3Seeds(g)[1],
			"truncated varint stream",
		},
	}

	// A real index for the byte-flip cases.
	ix, err := Build(g, Options{NumWalks: 3, Length: 4, Seed: 7})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	valid := buf.Bytes()

	flipPayload := append([]byte(nil), valid...)
	flipPayload[v3HeaderBytes+8] ^= 0xFF
	cases = append(cases, struct {
		name    string
		data    []byte
		wantErr string
	}{"block CRC mismatch", flipPayload, "checksum mismatch"})

	// Directory offset corrupted, CRC restamped so only the offset
	// cross-check can catch it.
	badDir := append([]byte(nil), valid...)
	dirStart := len(badDir) - 4 - 2*8 // 1 block -> 2 offsets + crc
	badDir[dirStart] ^= 0x04
	binary.LittleEndian.PutUint32(badDir[len(badDir)-4:],
		crc32.ChecksumIEEE(badDir[dirStart:len(badDir)-4]))
	cases = append(cases, struct {
		name    string
		data    []byte
		wantErr string
	}{"corrupt offset directory", badDir, "corrupt block directory"})

	badDirCRC := append([]byte(nil), valid...)
	badDirCRC[len(badDirCRC)-1] ^= 0xFF
	cases = append(cases, struct {
		name    string
		data    []byte
		wantErr string
	}{"directory CRC mismatch", badDirCRC, "directory checksum mismatch"})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(tc.data), g)
			if err == nil {
				t.Fatal("Load accepted corrupt v3 input")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got: %v", tc.wantErr, err)
			}
		})
	}
}

// TestConvertRoundTrip pins the format-conversion contract behind
// `semsim convert`: v2 and v3 load to identical walks, and
// re-serializing in either direction reaches a byte-stable fixpoint.
func TestConvertRoundTrip(t *testing.T) {
	g := braid(t, 17)
	ix, err := Build(g, Options{NumWalks: 5, Length: 6, Seed: 3})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var v2, v3 bytes.Buffer
	if _, err := ix.WriteToFormat(&v2, FormatV2); err != nil {
		t.Fatalf("write v2: %v", err)
	}
	if _, err := ix.WriteToFormat(&v3, FormatV3); err != nil {
		t.Fatalf("write v3: %v", err)
	}
	if v3.Len()*2 >= v2.Len() {
		t.Errorf("v3 (%d bytes) is not at least 2x smaller than v2 (%d bytes)", v3.Len(), v2.Len())
	}

	// v2 -> load -> v3 must equal the direct v3 serialization; v3 ->
	// load -> v2 must equal the direct v2 serialization.
	fromV2, err := Load(bytes.NewReader(v2.Bytes()), g)
	if err != nil {
		t.Fatalf("load v2: %v", err)
	}
	var up bytes.Buffer
	if _, err := fromV2.WriteToFormat(&up, FormatV3); err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	if !bytes.Equal(up.Bytes(), v3.Bytes()) {
		t.Fatal("v2 -> v3 conversion is not byte-identical to direct v3 serialization")
	}
	fromV3, err := Load(bytes.NewReader(v3.Bytes()), g)
	if err != nil {
		t.Fatalf("load v3: %v", err)
	}
	var down bytes.Buffer
	if _, err := fromV3.WriteToFormat(&down, FormatV2); err != nil {
		t.Fatalf("downgrade: %v", err)
	}
	if !bytes.Equal(down.Bytes(), v2.Bytes()) {
		t.Fatal("v3 -> v2 conversion is not byte-identical to direct v2 serialization")
	}

	// Unknown target versions are refused.
	if _, err := ix.WriteToFormat(&bytes.Buffer{}, 7); err == nil {
		t.Fatal("WriteToFormat accepted an unknown version")
	}
}

// TestV3EscapeEncoding pins the escape hatch: a loadable v2 file whose
// steps are NOT in-neighbors of their predecessors (legal in the flat
// formats, impossible for sampled walks) still converts to v3 and
// round-trips with identical walks.
func TestV3EscapeEncoding(t *testing.T) {
	g := fuzzGraph(7)
	ix, err := Build(g, Options{NumWalks: 2, Length: 3, Seed: 5})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var v2 bytes.Buffer
	if _, err := ix.WriteToFormat(&v2, FormatV2); err != nil {
		t.Fatalf("write v2: %v", err)
	}
	// Overwrite walk (0,0) step 1 with a node that is in range but not
	// an in-neighbor of node 0 (in-neighbors of 0 are 6 and 5; use 3),
	// restamping the v2 payload checksum.
	data := v2.Bytes()
	stepOff := 28 + 4 // first walk: position 0 at 28, step 1 at 32
	binary.LittleEndian.PutUint32(data[stepOff:], 3)
	payload := data[28:]
	binary.LittleEndian.PutUint32(data[24:], crc32.ChecksumIEEE(payload))

	bent, err := Load(bytes.NewReader(data), g)
	if err != nil {
		t.Fatalf("load bent v2: %v", err)
	}
	if got := bent.Walk(0, 0)[1]; got != 3 {
		t.Fatalf("bent step = %d, want 3", got)
	}
	var v3 bytes.Buffer
	if _, err := bent.WriteTo(&v3); err != nil {
		t.Fatalf("write v3 with escape: %v", err)
	}
	re, err := Load(bytes.NewReader(v3.Bytes()), g)
	if err != nil {
		t.Fatalf("reload v3 with escape: %v", err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		for i := 0; i < 2; i++ {
			a, b := bent.Walk(hin.NodeID(v), i), re.Walk(hin.NodeID(v), i)
			if !bytes.Equal(int32Bytes(a), int32Bytes(b)) {
				t.Fatalf("walk (%d,%d) differs after escape round trip: %v vs %v", v, i, a, b)
			}
		}
	}
}

func int32Bytes(w []int32) []byte {
	b := make([]byte, 0, len(w)*4)
	for _, x := range w {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

// TestBuildStreamingMatchesBuild pins the streaming builder's
// determinism contract: identical bytes to Build + WriteTo for the same
// options, at any block size, and identical walks after loading.
func TestBuildStreamingMatchesBuild(t *testing.T) {
	g := braid(t, 23)
	opts := Options{NumWalks: 6, Length: 8, Seed: 11}
	ix, err := Build(g, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var direct bytes.Buffer
	if _, err := ix.WriteTo(&direct); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	var streamed bytes.Buffer
	nBytes, err := BuildStreaming(g, opts, 0, &streamed)
	if err != nil {
		t.Fatalf("BuildStreaming: %v", err)
	}
	if nBytes != int64(streamed.Len()) {
		t.Fatalf("BuildStreaming reported %d bytes, wrote %d", nBytes, streamed.Len())
	}
	if !bytes.Equal(direct.Bytes(), streamed.Bytes()) {
		t.Fatal("BuildStreaming output differs from Build + WriteTo")
	}
	// A non-default block size still loads to identical walks (multiple
	// small blocks exercise the block-boundary paths).
	var small bytes.Buffer
	if _, err := BuildStreaming(g, opts, 512, &small); err != nil {
		t.Fatalf("BuildStreaming(512): %v", err)
	}
	loaded, err := Load(bytes.NewReader(small.Bytes()), g)
	if err != nil {
		t.Fatalf("load small-block stream: %v", err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		for i := 0; i < opts.NumWalks; i++ {
			a, b := ix.Walk(hin.NodeID(v), i), loaded.Walk(hin.NodeID(v), i)
			if !bytes.Equal(int32Bytes(a), int32Bytes(b)) {
				t.Fatalf("walk (%d,%d) differs between Build and small-block stream", v, i)
			}
		}
	}
}
