// Package huffman implements canonical Huffman coding over byte
// streams, the entropy coder behind the DFloat11 baseline (§3.2 of the
// ZipServ paper). The encoder produces a chunked, variable-length
// bitstream with per-chunk offset metadata — the "bitstream
// partitioning" stage the paper identifies as overhead ❶ — and the
// decoder performs the sequential, data-dependent symbol walk that
// constitutes overheads ❷ (table lookups) and ❸ (pointer advancement).
//
// The implementation is a complete, lossless entropy coder in its own
// right; ZipServ uses it both as a comparison baseline and to verify
// that TCA-TBE's fixed-length design loses almost nothing in
// compression ratio against a true entropy code.
package huffman

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
)

// MaxCodeLen caps Huffman code lengths so codes fit comfortably in a
// 64-bit decode buffer. Frequencies are rescaled if the optimal tree
// is deeper (only possible with pathological, near-Fibonacci
// distributions).
const MaxCodeLen = 32

// DefaultChunkSymbols is the number of symbols per independently
// decodable chunk, mirroring DFloat11's partitioning granularity.
const DefaultChunkSymbols = 8192

// Stream is a Huffman-encoded byte stream.
type Stream struct {
	// CodeLens holds the canonical code length of each byte symbol
	// (0 = symbol absent). This is the only table the decoder needs.
	CodeLens [256]uint8

	// Bits is the concatenated bitstream, MSB-first within each byte.
	Bits []byte

	// ChunkBitOff[i] is the bit offset where chunk i starts; chunks
	// contain ChunkSymbols symbols each except the last. This is the
	// metadata that lets a parallel decoder seat one thread per chunk
	// (DFloat11 stage ❶).
	ChunkBitOff []uint64

	// ChunkSymbols is the per-chunk symbol count used at encode time.
	ChunkSymbols int

	// NumSymbols is the total number of encoded symbols.
	NumSymbols int
}

// SizeBytes returns the serialized footprint: bitstream, code-length
// table and chunk metadata.
func (s *Stream) SizeBytes() int {
	return len(s.Bits) + 256 + 8*len(s.ChunkBitOff) + 16
}

// Encode compresses data with chunk granularity chunkSymbols
// (DefaultChunkSymbols if <= 0).
func Encode(data []byte, chunkSymbols int) (*Stream, error) {
	if chunkSymbols <= 0 {
		chunkSymbols = DefaultChunkSymbols
	}
	if len(data) == 0 {
		return nil, errors.New("huffman: cannot encode empty input")
	}

	var freq [256]int64
	for _, b := range data {
		freq[b]++
	}
	lens := buildCodeLengths(freq)
	codes := canonicalCodes(lens)

	s := &Stream{CodeLens: lens, ChunkSymbols: chunkSymbols, NumSymbols: len(data)}
	var bw bitWriter
	for i, b := range data {
		if i%chunkSymbols == 0 {
			s.ChunkBitOff = append(s.ChunkBitOff, bw.bitLen())
		}
		bw.write(codes[b], uint(lens[b]))
	}
	s.Bits = bw.bytes()
	return s, nil
}

// Decode reconstructs the original byte stream. The walk is inherently
// sequential within a chunk: each symbol's length is known only after
// its table lookup completes, which is the GPU-hostile property §3.2
// describes.
func (s *Stream) Decode() ([]byte, error) {
	if s.NumSymbols == 0 {
		return nil, errors.New("huffman: empty stream")
	}
	dec, err := newDecoder(s.CodeLens)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, s.NumSymbols)
	br := bitReader{data: s.Bits}
	for i := 0; i < s.NumSymbols; i++ {
		sym, err := dec.next(&br)
		if err != nil {
			return nil, fmt.Errorf("huffman: symbol %d: %w", i, err)
		}
		out = append(out, sym)
	}
	return out, nil
}

// DecodeChunk decodes chunk i independently, as a parallel GPU thread
// would: it seeks to the chunk's bit offset and walks its symbols.
func (s *Stream) DecodeChunk(i int) ([]byte, error) {
	if i < 0 || i >= len(s.ChunkBitOff) {
		return nil, fmt.Errorf("huffman: chunk %d out of range [0,%d)", i, len(s.ChunkBitOff))
	}
	dec, err := newDecoder(s.CodeLens)
	if err != nil {
		return nil, err
	}
	count := s.ChunkSymbols
	if rem := s.NumSymbols - i*s.ChunkSymbols; rem < count {
		count = rem
	}
	out := make([]byte, 0, count)
	br := bitReader{data: s.Bits, pos: s.ChunkBitOff[i]}
	for j := 0; j < count; j++ {
		sym, err := dec.next(&br)
		if err != nil {
			return nil, fmt.Errorf("huffman: chunk %d symbol %d: %w", i, j, err)
		}
		out = append(out, sym)
	}
	return out, nil
}

// NumChunks returns the number of independently decodable chunks.
func (s *Stream) NumChunks() int { return len(s.ChunkBitOff) }

// buildCodeLengths computes Huffman code lengths for the given
// frequency table, rescaling if the tree exceeds MaxCodeLen.
func buildCodeLengths(freq [256]int64) [256]uint8 {
	f := freq
	for {
		lens, maxLen := huffmanLengths(f)
		if maxLen <= MaxCodeLen {
			return lens
		}
		// Flatten the distribution and retry (standard depth-limiting
		// fallback; strictly suboptimal but always terminates because
		// the distribution converges to uniform).
		for i := range f {
			if f[i] > 0 {
				f[i] = (f[i] + 1) / 2
			}
		}
	}
}

type node struct {
	freq        int64
	sym         int // -1 for internal
	left, right *node
	order       int // tie-break for determinism
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].order < h[j].order
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any     { old := *h; n := old[len(old)-1]; *h = old[:len(old)-1]; return n }

func huffmanLengths(freq [256]int64) (lens [256]uint8, maxLen int) {
	h := &nodeHeap{}
	order := 0
	for s, f := range freq {
		if f > 0 {
			heap.Push(h, &node{freq: f, sym: s, order: order})
			order++
		}
	}
	if h.Len() == 1 {
		// Single distinct symbol: assign it a 1-bit code.
		lens[(*h)[0].sym] = 1
		return lens, 1
	}
	for h.Len() > 1 {
		a := heap.Pop(h).(*node)
		b := heap.Pop(h).(*node)
		heap.Push(h, &node{freq: a.freq + b.freq, sym: -1, left: a, right: b, order: order})
		order++
	}
	root := heap.Pop(h).(*node)
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if n.sym >= 0 {
			lens[n.sym] = uint8(depth)
			if depth > maxLen {
				maxLen = depth
			}
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	return lens, maxLen
}

// canonicalCodes assigns canonical codes (shorter codes first,
// ascending symbol order within a length).
func canonicalCodes(lens [256]uint8) [256]uint64 {
	type sl struct {
		sym int
		ln  uint8
	}
	var present []sl
	for s, l := range lens {
		if l > 0 {
			present = append(present, sl{s, l})
		}
	}
	sort.Slice(present, func(i, j int) bool {
		if present[i].ln != present[j].ln {
			return present[i].ln < present[j].ln
		}
		return present[i].sym < present[j].sym
	})
	var codes [256]uint64
	code := uint64(0)
	prevLen := uint8(0)
	for _, e := range present {
		code <<= e.ln - prevLen
		codes[e.sym] = code
		code++
		prevLen = e.ln
	}
	return codes
}

// decoder performs canonical Huffman decoding via first-code tables
// (the hierarchical LUT structure of DFloat11 stage ❷).
type decoder struct {
	firstCode [MaxCodeLen + 1]uint64
	firstIdx  [MaxCodeLen + 1]int
	count     [MaxCodeLen + 1]int
	syms      []byte
	maxLen    uint8
}

func newDecoder(lens [256]uint8) (*decoder, error) {
	d := &decoder{}
	for s := 0; s < 256; s++ {
		l := lens[s]
		if l > MaxCodeLen {
			return nil, fmt.Errorf("huffman: code length %d exceeds max %d", l, MaxCodeLen)
		}
		if l > 0 {
			d.count[l]++
			if l > d.maxLen {
				d.maxLen = l
			}
		}
	}
	if d.maxLen == 0 {
		return nil, errors.New("huffman: no symbols in code table")
	}
	// Kraft inequality check guards against corrupted tables.
	var kraft uint64
	for l := 1; l <= int(d.maxLen); l++ {
		kraft += uint64(d.count[l]) << (uint(d.maxLen) - uint(l))
	}
	if kraft > 1<<uint(d.maxLen) {
		return nil, errors.New("huffman: code table violates Kraft inequality")
	}
	code := uint64(0)
	idx := 0
	for l := 1; l <= int(d.maxLen); l++ {
		code <<= 1
		d.firstCode[l] = code
		d.firstIdx[l] = idx
		code += uint64(d.count[l])
		idx += d.count[l]
	}
	d.syms = make([]byte, idx)
	// Symbols in canonical order: by length, then value.
	pos := d.firstIdx
	for s := 0; s < 256; s++ {
		if l := lens[s]; l > 0 {
			d.syms[pos[l]] = byte(s)
			pos[l]++
		}
	}
	return d, nil
}

// next reads one symbol: it lengthens the code bit by bit until it
// falls inside a length class — the data-dependent loop that serialises
// GPU threads (§3.2 ❷❸).
func (d *decoder) next(br *bitReader) (byte, error) {
	code := uint64(0)
	for l := 1; l <= int(d.maxLen); l++ {
		b, err := br.readBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint64(b)
		if d.count[l] > 0 && code-d.firstCode[l] < uint64(d.count[l]) {
			return d.syms[d.firstIdx[l]+int(code-d.firstCode[l])], nil
		}
	}
	return 0, errors.New("invalid code")
}

// bitWriter emits an MSB-first bitstream.
type bitWriter struct {
	buf  []byte
	cur  uint8
	nCur uint
}

func (w *bitWriter) write(code uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.cur = w.cur<<1 | uint8(code>>uint(i)&1)
		w.nCur++
		if w.nCur == 8 {
			w.buf = append(w.buf, w.cur)
			w.cur, w.nCur = 0, 0
		}
	}
}

func (w *bitWriter) bitLen() uint64 { return uint64(len(w.buf))*8 + uint64(w.nCur) }

func (w *bitWriter) bytes() []byte {
	out := w.buf
	if w.nCur > 0 {
		out = append(out, w.cur<<(8-w.nCur))
	}
	return out
}

// bitReader consumes an MSB-first bitstream from an arbitrary offset.
type bitReader struct {
	data []byte
	pos  uint64 // bit position
}

func (r *bitReader) readBit() (uint8, error) {
	byteIdx := r.pos >> 3
	if byteIdx >= uint64(len(r.data)) {
		return 0, errors.New("bitstream exhausted")
	}
	bit := r.data[byteIdx] >> (7 - r.pos&7) & 1
	r.pos++
	return bit, nil
}
