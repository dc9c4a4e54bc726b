package walk

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"semsim/internal/hin"
)

// Binary index formats.
//
// Version 2 (flat):
//
//	magic "SSWK" | version u32 | nodes u32 | numWalks u32 | length u32 |
//	edges u32 (graph fingerprint) | crc32 u32 (IEEE, walk payload) |
//	walks []int32 LE
//
// Version 3 (compressed block format, the default WriteTo emits — see
// io_v3.go for the encoding) stores the walks as in-neighbor-slot
// varints in fixed-size blocks with a per-block CRC and an offset
// directory, cutting the on-disk footprint ~4x and enabling the lazy
// (larger-than-RAM) loading mode of OpenLazy.
//
// The preprocessing phase of the paper is the dominant offline cost, so
// persisting and reloading the sampled walks (instead of resampling on
// every process start) is the natural "compact indexing" extension its
// Section 7 sketches.

const (
	indexMagic = "SSWK"

	// FormatV2 files carry a crc32 word after the edges fingerprint;
	// FormatV3 files use the compressed block layout of io_v3.go.
	// Version 1, the checksum-free predecessor of v2, is no longer read.
	FormatV2 = 2
	FormatV3 = 3

	// FormatVersion is the walk-file version WriteTo emits by default —
	// exported so serving telemetry (semsim_build_info) can report which
	// on-disk format this process produces.
	FormatVersion = FormatV3

	// maxLoadWalks and maxLoadLength bound the header dimensions Load
	// accepts. The paper's settings are n_w = 150 and t = 15; the caps
	// leave orders of magnitude of headroom while keeping a corrupted
	// (or adversarial) header from driving the n*n_w*(t+1) walk-buffer
	// allocation to gigabytes before the truncated body is noticed.
	maxLoadWalks  = 1 << 20
	maxLoadLength = 1 << 16
)

// payloadCRC checksums the serialized v2 walk payload: every step as a
// little-endian uint32, exactly the bytes writeToV2 emits after the
// header. It reads through views so it also covers lazy indexes.
func (ix *Index) payloadCRC() uint32 {
	sum := crc32.NewIEEE()
	var buf [4]byte
	for v := 0; v < ix.n; v++ {
		nv := ix.View(hin.NodeID(v), nil)
		for _, step := range nv.walks {
			binary.LittleEndian.PutUint32(buf[:], uint32(step))
			sum.Write(buf[:])
		}
	}
	return sum.Sum32()
}

// WriteTo serializes the index in the current default format (version
// 3, compressed blocks). The graph itself is not stored; Load verifies
// the target graph's shape via a fingerprint.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	return ix.writeToV3(w, DefaultBlockBytes)
}

// WriteToFormat serializes the index in an explicit format version —
// FormatV2 for the legacy flat layout (readable by older builds),
// FormatV3 for the compressed block layout. The `semsim convert`
// subcommand uses it to up/downgrade existing files.
func (ix *Index) WriteToFormat(w io.Writer, version int) (int64, error) {
	switch version {
	case FormatV2:
		return ix.writeToV2(w)
	case FormatV3:
		return ix.writeToV3(w, DefaultBlockBytes)
	default:
		return 0, fmt.Errorf("walk: cannot write format version %d (writable: %d, %d)",
			version, FormatV2, FormatV3)
	}
}

// writeToV2 serializes the index in the flat checksummed v2 layout.
func (ix *Index) writeToV2(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	put := func(v uint32) error {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], v)
		n, err := bw.Write(buf[:])
		written += int64(n)
		return err
	}
	if n, err := bw.WriteString(indexMagic); err != nil {
		return written + int64(n), err
	}
	written += int64(len(indexMagic))
	hdr := []uint32{
		FormatV2, uint32(ix.n), uint32(ix.nw), uint32(ix.t),
		uint32(ix.g.NumEdges()), ix.payloadCRC(),
	}
	for _, v := range hdr {
		if err := put(v); err != nil {
			return written, err
		}
	}
	buf := make([]byte, 4)
	for v := 0; v < ix.n; v++ {
		nv := ix.View(hin.NodeID(v), nil)
		for _, step := range nv.walks {
			binary.LittleEndian.PutUint32(buf, uint32(step))
			n, err := bw.Write(buf)
			written += int64(n)
			if err != nil {
				return written, err
			}
		}
	}
	return written, bw.Flush()
}

// readHeader consumes the magic, version word and the four dimension
// words shared by every format version.
func readHeader(br *bufio.Reader) (version uint32, n, nw, t, edges int, err error) {
	magic := make([]byte, 4)
	if _, err = io.ReadFull(br, magic); err != nil {
		return 0, 0, 0, 0, 0, fmt.Errorf("walk: reading magic: %w", err)
	}
	if string(magic) != indexMagic {
		return 0, 0, 0, 0, 0, fmt.Errorf("walk: bad magic %q", magic)
	}
	var hdr [5]uint32
	for i := range hdr {
		var buf [4]byte
		if _, err = io.ReadFull(br, buf[:]); err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("walk: reading header: %w", err)
		}
		hdr[i] = binary.LittleEndian.Uint32(buf[:])
	}
	return hdr[0], int(hdr[1]), int(hdr[2]), int(hdr[3]), int(hdr[4]), nil
}

// checkDims validates the stored dimensions against the target graph
// and the header caps — shared by every format's load path.
func checkDims(g *hin.Graph, n, nw, t, edges int) error {
	if n != g.NumNodes() || edges != g.NumEdges() {
		return fmt.Errorf("walk: index built for %d nodes / %d edges, graph has %d / %d",
			n, edges, g.NumNodes(), g.NumEdges())
	}
	if nw < 1 || t < 1 || nw > maxLoadWalks || t > maxLoadLength {
		return fmt.Errorf("walk: corrupt header: numWalks=%d length=%d", nw, t)
	}
	return nil
}

// Load deserializes an index previously written with WriteTo (any
// format version), attaching it to g. It fails with a descriptive error
// if the stored dimensions or the graph fingerprint do not match g, if
// the file is truncated, or if a payload/block checksum does not match.
// The result is fully resident; use OpenLazy for the demand-paged mode.
func Load(r io.Reader, g *hin.Graph) (*Index, error) {
	br := bufio.NewReader(r)
	version, n, nw, t, edges, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	switch version {
	case FormatV2:
		return loadFlat(br, g, n, nw, t, edges)
	case FormatV3:
		return loadV3(br, g, n, nw, t, edges)
	default:
		return nil, fmt.Errorf("walk: unsupported index version %d (supported: %d, %d)",
			version, FormatV2, FormatV3)
	}
}

// loadFlat reads the v2 flat int32 payload and verifies its checksum.
func loadFlat(br *bufio.Reader, g *hin.Graph, n, nw, t, edges int) (*Index, error) {
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("walk: reading checksum: %w", err)
	}
	wantCRC := binary.LittleEndian.Uint32(crcBuf[:])
	if err := checkDims(g, n, nw, t, edges); err != nil {
		return nil, err
	}
	ix := &Index{g: g, n: n, nw: nw, t: t, stride: t + 1}
	// The walk buffer grows with the bytes actually read rather than
	// being preallocated from the header: a corrupt header can claim
	// dimensions whose product is terabytes while the body is empty,
	// and the upfront make() would OOM before the truncation surfaced.
	total := n * nw * ix.stride
	initial := total
	if initial > 1<<20 {
		initial = 1 << 20
	}
	ix.walks = make([]int32, 0, initial)
	buf := make([]byte, 4)
	gotCRC := uint32(0)
	for i := 0; i < total; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("walk: truncated walk data (step %d of %d): %w", i, total, err)
		}
		gotCRC = crc32.Update(gotCRC, crc32.IEEETable, buf)
		step := int32(binary.LittleEndian.Uint32(buf))
		if step != Stop && (step < 0 || int(step) >= n) {
			return nil, fmt.Errorf("walk: corrupt walk step %d at offset %d", step, i)
		}
		ix.walks = append(ix.walks, step)
	}
	if gotCRC != wantCRC {
		return nil, fmt.Errorf("walk: checksum mismatch (stored %08x, computed %08x): file corrupt",
			wantCRC, gotCRC)
	}
	ix.fillLens()
	return ix, nil
}
