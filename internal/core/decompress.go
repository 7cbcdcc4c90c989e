package core

import (
	"fmt"

	"zipserv/internal/bf16"
	"zipserv/internal/tile"
)

// Counters tallies the architectural events the decoder generates,
// mirroring what NVIDIA Nsight Compute reports in the paper's
// micro-level analysis (Figure 12): integer/logical ALU instructions
// (LOP3, IADD, SHF), population counts (POPC), shared-memory loads
// (LDS), and compressed bytes consumed from DRAM. Counts are
// deterministic functions of the bitmap contents, exactly as on real
// hardware where every lane executes the same branch-free sequence.
type Counters struct {
	LOP3 int64 // 3-input logic ops (bitmap OR, field merge)
	IADD int64 // integer adds (mask construction, implicit lookup)
	SHF  int64 // funnel shifts / bit extracts
	POPC int64 // population counts (dynamic addressing)
	LDS  int64 // shared-memory loads (value-buffer fetches)

	BytesRead int64 // compressed bytes consumed
	Elements  int64 // elements decoded
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.LOP3 += other.LOP3
	c.IADD += other.IADD
	c.SHF += other.SHF
	c.POPC += other.POPC
	c.LDS += other.LDS
	c.BytesRead += other.BytesRead
	c.Elements += other.Elements
}

// FragView is a decoded 8×8 FragTile in row-major order, the register
// image a warp holds after decompression (lane i owns elements 2i and
// 2i+1).
type FragView [tile.FragElems]bf16.BF16

// Decompress reconstructs the original matrix bit-for-bit:
// DecompressInto on a fresh matrix.
func Decompress(c *Compressed) (*bf16.Matrix, error) {
	return decompress(c, nil)
}

// DecompressCounted is Decompress plus architectural event counting.
// No serving path counts: the counters are the functional oracle that
// the tests of the analytical instruction model (Figure 12) compare
// against.
func DecompressCounted(c *Compressed) (*bf16.Matrix, Counters, error) {
	var ctr Counters
	m, err := decompress(c, &ctr)
	if err != nil {
		return nil, ctr, err
	}
	ctr.BytesRead = int64(c.SizeBytes())
	return m, ctr, nil
}

// DecompressInto reconstructs the original matrix bit-for-bit into dst,
// which must hold exactly Rows×Cols elements in row-major order. It
// allocates nothing, so a caller that decodes many payloads of one
// shape reuses one buffer.
func DecompressInto(c *Compressed, dst []bf16.BF16) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if len(dst) != c.Grid.Rows*c.Grid.Cols {
		return fmt.Errorf("core: %d-element destination for a %d×%d matrix", len(dst), c.Grid.Rows, c.Grid.Cols)
	}
	c.decode(dst, nil)
	return nil
}

// decompress validates c and decodes it into a fresh matrix, counting
// architectural events into ctr unless it is nil.
func decompress(c *Compressed, ctr *Counters) (*bf16.Matrix, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	m := bf16.NewMatrix(c.Grid.Rows, c.Grid.Cols)
	c.decode(m.Data, ctr)
	return m, nil
}

// decode is the one decoding loop behind Decompress, DecompressCounted
// and DecompressInto: it walks blocks and frags in storage order,
// advancing the High and Full cursors row by row, and writes each
// FragTile row straight into its place in dst (a valid c's Rows×Cols
// row-major matrix). A row the matrix edge clips is decoded whole and
// only its in-bounds part copied; padding is discarded.
func (c *Compressed) decode(dst []bf16.BF16, ctr *Counters) {
	g := c.Grid
	m := bf16.Matrix{Rows: g.Rows, Cols: g.Cols, Data: dst}
	exps := c.exponentTable()
	var clipped [tile.FragDim]bf16.BF16
	for b := 0; b < g.NumBlocks(); b++ {
		br, bc := g.BlockOrigin(b)
		h, l := int(c.HighOff[b]), int(c.FullOff[b])
		for f := 0; f < tile.FragsPerBlock; f++ {
			pl := c.planes(b*tile.FragsPerBlock + f)
			fr, fc := tile.FragOrigin(f)
			h0 := h
			for r := 0; r < tile.FragDim; r++ {
				out := fragRow(&m, br+fr+r, bc+fc)
				if len(out) == tile.FragDim {
					h, l = c.decodeRow(&pl, r, h, l, &exps, (*[tile.FragDim]bf16.BF16)(out))
				} else {
					h, l = c.decodeRow(&pl, r, h, l, &exps, &clipped)
					copy(out, clipped[:])
				}
			}
			c.count(ctr, h-h0)
		}
	}
}

// DecodeFragAt decodes FragTile frag given its known buffer offsets,
// optionally counting architectural events into ctr (nil to skip).
func (c *Compressed) DecodeFragAt(frag int, startH, startL int64, out *FragView, ctr *Counters) {
	exps := c.exponentTable()
	pl := c.planes(frag)
	h, l := int(startH), int(startL)
	for r := 0; r < tile.FragDim; r++ {
		h, l = c.decodeRow(&pl, r, h, l, &exps, (*[tile.FragDim]bf16.BF16)(out[r*tile.FragDim:]))
	}
	c.count(ctr, h-int(startH))
}

// planes returns FragTile frag's bit-planes, zero beyond CodewordBits.
func (c *Compressed) planes(frag int) (pl [4]uint64) {
	copy(pl[:], c.FragPlanes(frag))
	return pl
}

// count adds the closed-form cost of decoding one FragTile with hi
// in-window elements to ctr, unless it is nil.
func (c *Compressed) count(ctr *Counters, hi int) {
	if ctr != nil {
		ctr.Add(fragDecodeCost(c.Opts.CodewordBits, hi, c.Opts.Selection == WindowSelection))
	}
}

// spread[x] puts bit k of x in bit 0 of byte k: one bit-plane's byte of
// a FragTile row, widened to one codeword bit per position. It inverts
// the encoder's gather.
var spread = func() (t [256]uint64) {
	for x := range t {
		for k := 0; k < tile.FragDim; k++ {
			t[x] |= uint64(x>>k&1) << (8 * k)
		}
	}
	return t
}()

// decodeRow decodes row r of a FragTile with bit-planes pl into out,
// reading in-window elements from High at h and outliers from Full at
// l, and returns the advanced cursors. It is the CPU form of the
// thread-local decompressor of §4.3.2, eight positions per step:
//
//  1. Spatial bitmap indicator: the OR of the row's plane bytes marks
//     each position compressed (1) or fallback (0).
//  2. Dynamic addressing: the cursors advance past each position's
//     element, so no prefix popcount is needed; an all-in-window row
//     (the common case) reads eight consecutive High bytes.
//  3. Fast exponent reassembly: four spread lookups place the row's
//     eight codewords one per byte; each indexes exps
//     (c.exponentTable: BaseExp + code under the implicit lookup) and
//     is fused with its packed sign/mantissa byte into a BF16.
func (c *Compressed) decodeRow(pl *[4]uint64, r, h, l int, exps *[16]uint8, out *[tile.FragDim]bf16.BF16) (int, int) {
	s := uint(r * tile.FragDim)
	p0, p1, p2, p3 := uint8(pl[0]>>s), uint8(pl[1]>>s), uint8(pl[2]>>s), uint8(pl[3]>>s)
	codes := spread[p0] | spread[p1]<<1 | spread[p2]<<2 | spread[p3]<<3
	in := p0 | p1 | p2 | p3
	if in == 0xff {
		// Unrolled by hand: the compiler does not unroll loops, and most
		// rows take this path.
		high := (*[tile.FragDim]uint8)(c.High[h:])
		out[0] = assemble(high[0], exps[codes&0xf])
		out[1] = assemble(high[1], exps[codes>>8&0xf])
		out[2] = assemble(high[2], exps[codes>>16&0xf])
		out[3] = assemble(high[3], exps[codes>>24&0xf])
		out[4] = assemble(high[4], exps[codes>>32&0xf])
		out[5] = assemble(high[5], exps[codes>>40&0xf])
		out[6] = assemble(high[6], exps[codes>>48&0xf])
		out[7] = assemble(high[7], exps[codes>>56&0xf])
		return h + tile.FragDim, l
	}
	for k := range out {
		if in>>k&1 == 1 {
			out[k] = assemble(c.High[h], exps[codes>>(8*k)&0xf])
			h++
		} else {
			out[k] = bf16.FromBits(c.Full[l])
			l++
		}
	}
	return h, l
}

// assemble fuses a PackedSignMantissa byte with an exponent into a BF16.
func assemble(packed, exp uint8) bf16.BF16 {
	sign, mant := bf16.UnpackSignMantissa(packed)
	return bf16.Assemble(sign, exp, mant)
}

// DecodeALUOpsPerElement returns the expected integer-pipeline
// instructions (LOP3+IADD+SHF+POPC) per decoded element for an n-bit
// codeword scheme with the given in-window coverage. It is the
// continuous form of fragDecodeCost, used by the GPU cost model to
// price the fused kernel's ALU stream; the two are cross-checked by
// tests.
func DecodeALUOpsPerElement(n int, coverage float64) float64 {
	indicator := float64(n-1) / float64(tile.ElemsPerLane) // per-lane OR, amortised over 2 elems
	base := 5.0                                            // mask SHF+IADD, POPC, mode SHF+LOP3
	high := coverage * float64((n+2)+(n+1)+1)              // code gather+reassembly SHF/LOP3 + implicit IADD
	low := (1 - coverage) * 1.0                            // fallback index IADD
	return indicator + base + high + low
}

// fragDecodeCost returns the deterministic instruction cost of
// decoding one FragTile with hi in-window elements out of 64, using
// n bit-planes. It models the GPU lane sequence in closed form, not
// the CPU row decoder: on the GPU each of the 32 lanes runs the
// identical branch-free sequence for its two positions, addressing by
// prefix popcount, so the count depends on hi alone, however the CPU
// reaches the same values. The per-element sequences follow the CUDA
// decoder sketch in §4.3.2:
//
//	indicator:  n−1 LOP3 per lane (OR of n planes, once per lane);
//	per element: 1 SHF + 1 IADD (mask), 1 POPC (prefix count),
//	             1 SHF + 1 LOP3 (mode test);
//	high path:  n SHF + n−1 LOP3 (code gather), 1 IADD (implicit
//	            lookup; an LDS instead when a codebook table is used),
//	            2 SHF + 2 LOP3 (BF16 reassembly), 1 LDS (High fetch);
//	fallback:   1 IADD (zero count), 1 LDS (Full fetch).
func fragDecodeCost(n, hi int, implicit bool) Counters {
	lo := tile.FragElems - hi
	var ct Counters
	lanes := int64(tile.WarpLanes)
	ct.LOP3 += lanes * int64(n-1) // indicator OR

	perElem := int64(tile.FragElems)
	ct.SHF += perElem * 2  // mask shift + mode-test shift
	ct.IADD += perElem * 1 // mask −1
	ct.POPC += perElem * 1
	ct.LOP3 += perElem * 1 // mode-test AND

	h := int64(hi)
	ct.SHF += h * int64(n+2)    // code gather + reassembly shifts
	ct.LOP3 += h * int64(n-1+2) // code OR-merge + reassembly merges
	if implicit {
		ct.IADD += h // base + code
	} else {
		ct.LDS += h // codebook table lookup
	}
	ct.LDS += h // High fetch

	l := int64(lo)
	ct.IADD += l // p − idxH
	ct.LDS += l  // Full fetch

	ct.Elements += int64(tile.FragElems)
	return ct
}
