package walk

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"semsim/internal/hin"
)

// Format version 3: compressed block layout.
//
//	magic "SSWK" | version=3 u32 | nodes u32 | numWalks u32 | length u32 |
//	edges u32 (graph fingerprint) | blockNodes u32 | numBlocks u32
//	then per block:
//	    payloadLen u32 | crc32 u32 (IEEE, payload) | payload
//	then the directory:
//	    (numBlocks+1) × u64 LE file offsets | dirCRC u32 (IEEE)
//
// A block covers the contiguous source-node range
// [b*blockNodes, min((b+1)*blockNodes, nodes)); directory entry b is the
// file offset of block b's payloadLen word and the final entry is the
// offset of the directory itself, so entry deltas give block sizes and a
// lazy reader can fetch any block with one ReadAt. The directory lives
// at the tail so the writer streams blocks without buffering the file.
//
// Block payload: for each node v in the range, for each walk i,
//
//	uvarint liveLen (1..t+1), then for each live step s = 1..liveLen-1
//	the step is encoded as the *slot index* of walks[s] within
//	InNeighbors(walks[s-1]) — a walk step is by construction one of its
//	predecessor's in-neighbors, and in-slot indexes are tiny (almost
//	always one varint byte) where raw node ids are 4 bytes. Position 0
//	is always v and is not stored.
//
// Escape hatch: a step that is NOT an in-neighbor of its predecessor
// (possible only in hand-crafted or legacy v1 files, never in sampled
// walks) is encoded as uvarint(len(in)) followed by the raw node id as
// a uvarint. Codes above len(in) are corrupt. This keeps conversion
// total: any loadable v1/v2 file re-encodes to v3 and round-trips.
//
// Decoding needs the graph's in-neighbor lists — the same graph the
// header fingerprint already pins — and costs one slice index per step,
// so a decoded block is bit-identical to the flat v2 walks.

const (
	// DefaultBlockBytes is the uncompressed-walk-data target per block
	// (the decoded int32 footprint, which is what the lazy cache
	// accounts); the on-disk payload is ~4x smaller. 64 KiB matches the
	// SOCache striping granularity: big enough to amortize per-block
	// overhead, small enough that a cache budget of a few MiB holds the
	// working set of a query mix.
	DefaultBlockBytes = 64 << 10

	// v3HeaderBytes is the fixed prefix before block 0: magic plus
	// seven u32 words.
	v3HeaderBytes = 4 + 7*4
)

// blockNodesFor sizes a block in source nodes so its decoded walk slab
// is ~blockBytes.
func blockNodesFor(blockBytes, nw, stride int) int {
	bn := blockBytes / (nw * stride * 4)
	if bn < 1 {
		bn = 1
	}
	return bn
}

func numBlocksFor(n, blockNodes int) int {
	if n == 0 {
		return 0
	}
	return (n + blockNodes - 1) / blockNodes
}

// maxBlockPayload bounds a block's on-disk payload for cnt nodes: per
// walk a 3-byte length varint plus, per step, a worst-case escape (5-byte
// code + 5-byte raw id). A stored payloadLen above this is corrupt, and
// rejecting it before allocation keeps a hostile length word from
// driving a huge preallocation.
func maxBlockPayload(cnt, nw, stride int) uint64 {
	return uint64(cnt) * uint64(nw) * uint64(3+(stride-1)*10)
}

// appendNodeV3 encodes node v's walks (read through nv) onto dst.
func appendNodeV3(dst []byte, g *hin.Graph, v hin.NodeID, nv NodeView) []byte {
	nw := len(nv.lens)
	for i := 0; i < nw; i++ {
		w := nv.Walk(i)
		l := nv.Len(i)
		dst = binary.AppendUvarint(dst, uint64(l))
		prev := v
		for s := 1; s < l; s++ {
			step := hin.NodeID(w[s])
			in := g.InNeighbors(prev)
			idx := -1
			for j, nb := range in {
				if nb == step {
					idx = j
					break
				}
			}
			if idx >= 0 {
				dst = binary.AppendUvarint(dst, uint64(idx))
			} else {
				dst = binary.AppendUvarint(dst, uint64(len(in)))
				dst = binary.AppendUvarint(dst, uint64(step))
			}
			prev = step
		}
	}
	return dst
}

// decodeNodeV3 decodes node v's walks from p starting at pos into nv,
// returning the position after the node. Every error is distinct by
// failure class so the fuzz corpus can pin them: truncated varint,
// corrupt live length, step code out of range, escaped node id out of
// range.
func decodeNodeV3(p []byte, pos int, g *hin.Graph, v hin.NodeID, nv NodeView) (int, error) {
	n, stride := g.NumNodes(), nv.stride
	for i := range nv.lens {
		w := nv.Walk(i)
		l, k := binary.Uvarint(p[pos:])
		if k <= 0 {
			return 0, fmt.Errorf("walk: truncated varint stream (walk %d of node %d)", i, v)
		}
		pos += k
		if l < 1 || l > uint64(stride) {
			return 0, fmt.Errorf("walk: corrupt live length %d (walk %d of node %d, stride %d)", l, i, v, stride)
		}
		w[0] = int32(v)
		prev := v
		for s := 1; s < int(l); s++ {
			code, k := binary.Uvarint(p[pos:])
			if k <= 0 {
				return 0, fmt.Errorf("walk: truncated varint stream (step %d, walk %d of node %d)", s, i, v)
			}
			pos += k
			in := g.InNeighbors(prev)
			var step hin.NodeID
			switch {
			case code < uint64(len(in)):
				step = in[code]
			case code == uint64(len(in)):
				raw, k := binary.Uvarint(p[pos:])
				if k <= 0 {
					return 0, fmt.Errorf("walk: truncated varint stream (escaped step %d, walk %d of node %d)", s, i, v)
				}
				pos += k
				if raw >= uint64(n) {
					return 0, fmt.Errorf("walk: corrupt escaped step %d (node %d has %d nodes)", raw, v, n)
				}
				step = hin.NodeID(raw)
			default:
				return 0, fmt.Errorf("walk: step code %d out of range (in-degree %d at step %d, walk %d of node %d)",
					code, len(in), s, i, v)
			}
			w[s] = int32(step)
			prev = step
		}
		for s := int(l); s < stride; s++ {
			w[s] = Stop
		}
		nv.lens[i] = int32(l)
	}
	return pos, nil
}

// decodeBlock is the one v3 block decoder, shared by Load and the lazy
// cache: it decodes block b, laid out by l, from its plen-byte payload
// under g. plen must pass the plausibility checks before read is called
// to supply the payload and its stored CRC, so a hostile length word
// never sizes a buffer or a decoded slab; then the CRC is checked, every
// node decoded and trailing bytes rejected.
func (l layout) decodeBlock(g *hin.Graph, b int, plen uint64, read func() ([]byte, uint32, error)) (*block, error) {
	lo, hi := l.span(b)
	cnt := hi - lo
	if plen > maxBlockPayload(cnt, l.nw, l.stride) {
		return nil, fmt.Errorf("walk: block %d: oversized payload (%d bytes for %d nodes)", b, plen, cnt)
	}
	// Every walk costs at least its one-byte length varint, so a payload
	// shorter than the walk count cannot decode — reject before sizing
	// the decoded slab by it.
	if plen < uint64(cnt)*uint64(l.nw) {
		return nil, fmt.Errorf("walk: block %d: truncated varint stream (%d bytes for %d walks)",
			b, plen, cnt*l.nw)
	}
	payload, want, err := read()
	if err != nil {
		return nil, fmt.Errorf("walk: block %d: %w", b, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("walk: block %d: checksum mismatch (stored %08x, computed %08x): file corrupt",
			b, want, got)
	}
	blk := newBlock(cnt, l.nw, l.stride)
	pos := 0
	for v := lo; v < hi; v++ {
		if pos, err = decodeNodeV3(payload, pos, g, hin.NodeID(v), l.view(blk, b, v)); err != nil {
			return nil, fmt.Errorf("walk: block %d: %w", b, err)
		}
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("walk: block %d: %d trailing bytes after last walk", b, len(payload)-pos)
	}
	return blk, nil
}

// v3Writer emits the v3 container: header up front, blocks as they are
// handed over, directory + CRC at finish. Both writeToV3 (re-encoding
// an existing index) and BuildStreaming (sampling block by block) drive
// it, so the bytes are identical for identical walks.
type v3Writer struct {
	bw      *bufio.Writer
	written int64
	offsets []uint64
	off     uint64
}

func newV3Writer(w io.Writer, n, nw, t, edges, blockNodes, numBlocks int) (*v3Writer, error) {
	vw := &v3Writer{
		bw:      bufio.NewWriter(w),
		offsets: make([]uint64, 0, numBlocks+1),
		off:     v3HeaderBytes,
	}
	hdr := make([]byte, 0, v3HeaderBytes)
	hdr = append(hdr, indexMagic...)
	for _, word := range [7]uint32{
		FormatV3, uint32(n), uint32(nw), uint32(t),
		uint32(edges), uint32(blockNodes), uint32(numBlocks),
	} {
		hdr = binary.LittleEndian.AppendUint32(hdr, word)
	}
	if err := vw.put(hdr); err != nil {
		return nil, err
	}
	return vw, nil
}

func (vw *v3Writer) put(b []byte) error {
	n, err := vw.bw.Write(b)
	vw.written += int64(n)
	return err
}

func (vw *v3Writer) writeBlock(payload []byte) error {
	vw.offsets = append(vw.offsets, vw.off)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if err := vw.put(hdr[:]); err != nil {
		return err
	}
	if err := vw.put(payload); err != nil {
		return err
	}
	vw.off += 8 + uint64(len(payload))
	return nil
}

func (vw *v3Writer) finish() (int64, error) {
	vw.offsets = append(vw.offsets, vw.off)
	dir := make([]byte, 0, len(vw.offsets)*8+4)
	for _, o := range vw.offsets {
		dir = binary.LittleEndian.AppendUint64(dir, o)
	}
	dir = binary.LittleEndian.AppendUint32(dir, crc32.ChecksumIEEE(dir))
	if err := vw.put(dir); err != nil {
		return vw.written, err
	}
	return vw.written, vw.bw.Flush()
}

// writeToV3 serializes the index in the compressed block layout. It
// reads walks through views, so it works for resident and lazy indexes
// alike (converting or re-blocking a lazy index streams block by block
// and never materializes the full slab).
func (ix *Index) writeToV3(w io.Writer, blockBytes int) (int64, error) {
	bn := blockNodesFor(blockBytes, ix.nw, ix.stride)
	nb := numBlocksFor(ix.n, bn)
	vw, err := newV3Writer(w, ix.n, ix.nw, ix.t, ix.g.NumEdges(), bn, nb)
	if err != nil {
		return vw.written, err
	}
	var payload []byte
	for b := 0; b < nb; b++ {
		payload = payload[:0]
		for v := b * bn; v < min((b+1)*bn, ix.n); v++ {
			payload = appendNodeV3(payload, ix.g, hin.NodeID(v), ix.View(hin.NodeID(v), nil))
		}
		if err := vw.writeBlock(payload); err != nil {
			return vw.written, err
		}
	}
	return vw.finish()
}

// loadV3 reads the v3 body sequentially into a fully-resident index.
// readHeader has consumed through the edges word; the directory at the
// tail is verified against the offsets actually observed, so directory
// corruption is detected even though sequential loading does not seek.
func loadV3(br *bufio.Reader, g *hin.Graph, n, nw, t, edges int) (*Index, error) {
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return nil, fmt.Errorf("walk: reading v3 header: %w", err)
	}
	bn := int(binary.LittleEndian.Uint32(buf[0:4]))
	nb := int(binary.LittleEndian.Uint32(buf[4:8]))
	if err := checkDims(g, n, nw, t, edges); err != nil {
		return nil, err
	}
	if bn < 1 || nb != numBlocksFor(n, bn) {
		return nil, fmt.Errorf("walk: corrupt v3 header: blockNodes=%d numBlocks=%d for %d nodes", bn, nb, n)
	}
	ix := newIndex(g, n, nw, t, bn)
	// Blocks are decoded one at a time, each only after its payload has
	// been read in full and its length passed decodeBlock's plausibility
	// checks — so a corrupt header (dimensions at the caps, or a huge
	// payloadLen word) costs bytes proportional to the file actually
	// supplied, never a make() driven by claims alone (the v1-header bug
	// class). The factor is up to 4*(t+1) decoded bytes per payload
	// byte: a one-byte live length stands for a whole Stop-padded walk.
	offsets := make([]uint64, nb+1)
	off := uint64(v3HeaderBytes)
	var pbuf bytes.Buffer
	for b := range ix.blocks {
		offsets[b] = off
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("walk: block %d: truncated header: %w", b, err)
		}
		plen := uint64(binary.LittleEndian.Uint32(buf[0:4]))
		want := binary.LittleEndian.Uint32(buf[4:8])
		blk, err := ix.decodeBlock(g, b, plen, func() ([]byte, uint32, error) {
			pbuf.Reset()
			if _, err := io.CopyN(&pbuf, br, int64(plen)); err != nil {
				return nil, 0, fmt.Errorf("truncated payload: %w", err)
			}
			return pbuf.Bytes(), want, nil
		})
		if err != nil {
			return nil, err
		}
		ix.blocks[b] = blk
		off += 8 + plen
	}
	offsets[nb] = off

	dir := make([]byte, (nb+1)*8)
	if _, err := io.ReadFull(br, dir); err != nil {
		return nil, fmt.Errorf("walk: truncated block directory: %w", err)
	}
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return nil, fmt.Errorf("walk: reading directory checksum: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(dir), binary.LittleEndian.Uint32(buf[:4]); got != want {
		return nil, fmt.Errorf("walk: block directory checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	for i := range offsets {
		if stored := binary.LittleEndian.Uint64(dir[i*8:]); stored != offsets[i] {
			return nil, fmt.Errorf("walk: corrupt block directory (entry %d: stored offset %d, observed %d)",
				i, stored, offsets[i])
		}
	}
	return ix.tally(), nil
}

// BuildStreaming samples a walk index for g and writes it straight to w
// in format v3, one block at a time: peak memory is one decoded block
// (~blockBytes) plus the encoder buffer, never the n*n_w*(t+1) slab, so
// datagen can emit million-node indexes on modest machines. Every
// (node, walk) pair uses the same RNG stream as Build, so the file
// loads bit-identical to Build(g, opts) followed by WriteTo.
// blockBytes <= 0 selects DefaultBlockBytes.
func BuildStreaming(g *hin.Graph, opts Options, blockBytes int, w io.Writer) (int64, error) {
	if err := opts.fill(); err != nil {
		return 0, err
	}
	if blockBytes <= 0 {
		blockBytes = DefaultBlockBytes
	}
	buildLat := opts.Metrics.Histogram("semsim_walk_build_seconds",
		"wall time of one walk-sampling pass", nil)
	t0 := buildLat.Start()
	n, nw, t := g.NumNodes(), opts.NumWalks, opts.Length
	l := layout{n: n, nw: nw, t: t, stride: t + 1, bn: blockNodesFor(blockBytes, nw, t+1)}
	nb := numBlocksFor(n, l.bn)
	vw, err := newV3Writer(w, n, nw, t, g.NumEdges(), l.bn, nb)
	if err != nil {
		return vw.written, err
	}
	blk := newBlock(l.bn, nw, l.stride)
	var payload []byte
	for b := 0; b < nb; b++ {
		lo, hi := l.span(b)
		l.sampleNodes(g, blk, lo, lo, hi, opts.Seed, 0)
		payload = payload[:0]
		for v := lo; v < hi; v++ {
			payload = appendNodeV3(payload, g, hin.NodeID(v), l.view(blk, b, v))
		}
		if err := vw.writeBlock(payload); err != nil {
			return vw.written, err
		}
	}
	written, err := vw.finish()
	if err != nil {
		return written, err
	}
	buildLat.ObserveSince(t0)
	opts.Metrics.Counter("semsim_walks_sampled_total",
		"random walks drawn across all index builds").Add(int64(n) * int64(nw))
	return written, nil
}
