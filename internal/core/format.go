// Package core implements Tensor-Core-Aware Triple Bitmap Encoding
// (TCA-TBE), the primary contribution of the ZipServ paper (§4.2), and
// its constant-time, branch-free decoder (§4.3.2, Algorithm 2).
//
// TCA-TBE is a fixed-length, tile-structured lossless format for BF16
// weight matrices. Offline, the compressor profiles the exponent
// histogram, picks a window of 2^n−1 numerically consecutive exponents
// (n = 3 by default, so seven exponents), and records the value just
// below the window as BaseExp. Each 8×8 FragTile is then encoded as:
//
//   - n 64-bit bitmaps, one per bit-plane of the n-bit codewords
//     ("triple bitmap" for n = 3);
//   - a PackedSignMantissa buffer holding one byte (sign + 7-bit
//     mantissa) per element whose exponent falls inside the window;
//   - a FullValue buffer holding the complete 16-bit pattern of every
//     outlier (codeword 0).
//
// Decoding is thread-local and data-independent: a lane ORs the
// bit-planes into a spatial indicator mask, uses popcount over a prefix
// of that mask to compute its buffer offset (dynamic addressing), and
// reconstructs the exponent as BaseExp + code (implicit lookup) — no
// variable-length bitstream, no divergence, no tables.
package core

import (
	"fmt"

	"zipserv/internal/tile"
)

// Selection chooses how the compressor picks the set of in-window
// exponents (ablation A5 in DESIGN.md).
type Selection uint8

const (
	// WindowSelection picks the contiguous window of 2^n−1 exponents
	// that maximises coverage, enabling the implicit base+code lookup.
	// This is the paper's design, justified by the contiguity property
	// of §3.1 / Appendix A.
	WindowSelection Selection = iota

	// TopFrequencySelection picks the 2^n−1 individually most frequent
	// exponents regardless of contiguity; decoding then requires an
	// explicit codebook table lookup. Kept as the ablation baseline the
	// paper argues against.
	TopFrequencySelection
)

func (s Selection) String() string {
	switch s {
	case WindowSelection:
		return "window"
	case TopFrequencySelection:
		return "top-frequency"
	default:
		return fmt.Sprintf("Selection(%d)", uint8(s))
	}
}

// Options configures the compressor.
type Options struct {
	// CodewordBits is the fixed codeword length n; the codec covers
	// 2^n−1 exponent values. The paper chooses 3 (§4.2 "The Choice of
	// Codeword Length"); 2 and 4 are supported for the ablation study.
	CodewordBits int

	// Selection is the exponent-set selection strategy.
	Selection Selection
}

// DefaultOptions returns the paper's configuration: 3-bit codewords
// over a contiguous window of 7 exponents.
func DefaultOptions() Options {
	return Options{CodewordBits: 3, Selection: WindowSelection}
}

func (o Options) validate() error {
	if o.CodewordBits < 2 || o.CodewordBits > 4 {
		return fmt.Errorf("core: codeword length %d outside supported range [2,4]", o.CodewordBits)
	}
	if o.Selection != WindowSelection && o.Selection != TopFrequencySelection {
		return fmt.Errorf("core: unknown selection strategy %d", o.Selection)
	}
	return nil
}

// WindowSize returns the number of in-window exponent values, 2^n−1.
func (o Options) WindowSize() int { return 1<<o.CodewordBits - 1 }

// Compressed is a weight matrix in TCA-TBE form. The four global
// arrays (bit-planes, PackedSignMantissa, FullValue, offsets) mirror
// the paper's matrix-level layout (§4.2 "Hierarchical Tiling Design"):
// buffers are nested by the tiling hierarchy, and the Offset arrays
// record where each GroupTile (64×64 BlockTile) begins within the
// value buffers.
type Compressed struct {
	Grid tile.Grid
	Opts Options

	// BaseExp is min(window) − 1; an in-window element with codeword c
	// has exponent BaseExp + c. It is int16 because a window starting
	// at exponent 0 yields BaseExp = −1.
	BaseExp int16

	// Codebook maps codeword c → exponent for TopFrequencySelection;
	// Codebook[c-1] is the exponent assigned to codeword c. It is also
	// populated (redundantly, as BaseExp+c) under WindowSelection so
	// diagnostic tooling can treat both modes uniformly.
	Codebook []uint8

	// Planes holds the bit-plane bitmaps: Planes[frag*n + b] is
	// bit-plane b (LSB first) of global FragTile frag. Bit p of a
	// plane corresponds to row-major position p within the 8×8 tile.
	Planes []uint64

	// High is the PackedSignMantissa buffer: one byte per in-window
	// element, in (block, frag, position) order.
	High []uint8

	// Full is the FullValue fallback buffer: one raw BF16 pattern per
	// outlier element, same ordering.
	Full []uint16

	// HighOff and FullOff record the starting offset of each BlockTile
	// within High and Full respectively; both have NumBlocks()+1
	// entries so that block b spans [Off[b], Off[b+1]).
	HighOff []int64
	FullOff []int64
}

// FragPlanes returns the bit-planes of global FragTile frag.
func (c *Compressed) FragPlanes(frag int) []uint64 {
	n := c.Opts.CodewordBits
	return c.Planes[frag*n : frag*n+n]
}

// Indicator returns the spatial indicator mask of FragTile frag: the
// bitwise OR of its planes. Bit p set ⇒ position p is in-window
// (high-frequency path); clear ⇒ fallback path. This is Step 1 of
// Algorithm 2.
func (c *Compressed) Indicator(frag int) uint64 {
	m := uint64(0)
	for _, p := range c.FragPlanes(frag) {
		m |= p
	}
	return m
}

// SizeBytes returns the total compressed footprint: bitmap planes,
// value buffers, per-block offsets and the fixed header. This is the
// numerator-side of every compression-ratio figure in the paper.
func (c *Compressed) SizeBytes() int {
	return footprint(len(c.Planes), len(c.High), len(c.Full), len(c.HighOff)+len(c.FullOff), len(c.Codebook))
}

// footprint prices a payload by its array lengths — the one size
// formula behind SizeBytes and SizeOfHistogram: 8 bytes per bit-plane
// word, one per PackedSignMantissa byte, two per FullValue entry, 8 per
// offset, one per codebook entry, plus the fixed header.
func footprint(planes, high, full, offsets, codebook int) int {
	const header = 32 // magic, version, dims, options, base exponent
	return header + 8*planes + high + 2*full + 8*offsets + codebook
}

// CompressionRatio returns uncompressed bytes / compressed bytes.
func (c *Compressed) CompressionRatio() float64 {
	orig := 2 * c.Grid.Rows * c.Grid.Cols
	return float64(orig) / float64(c.SizeBytes())
}

// BitsPerElement returns the average compressed storage per original
// matrix element, comparable to the AverageBits(n) analysis of §4.2.
func (c *Compressed) BitsPerElement() float64 {
	return 8 * float64(c.SizeBytes()) / float64(c.Grid.Rows*c.Grid.Cols)
}

// CoverageRatio returns the fraction of stored elements that took the
// high-frequency path. For matrices whose dimensions are multiples of
// 64 this equals the window coverage r_n of §4.2.
func (c *Compressed) CoverageRatio() float64 {
	total := len(c.High) + len(c.Full)
	if total == 0 {
		return 0
	}
	return float64(len(c.High)) / float64(total)
}

// exponentTable maps every codeword to its exponent (entry 0, the
// outlier codeword, is unused): BaseExp + code under WindowSelection —
// the implicit lookup — or the codebook entry under
// TopFrequencySelection. Decompress builds it once for the whole
// matrix, DecodeFragAt once per call.
func (c *Compressed) exponentTable() (t [16]uint8) {
	for code := 1; code <= c.Opts.WindowSize(); code++ {
		if c.Opts.Selection == WindowSelection {
			t[code] = uint8(int(c.BaseExp) + code)
		} else {
			t[code] = c.Codebook[code-1]
		}
	}
	return t
}

// Validate performs structural integrity checks: a codebook of 2^n−1
// entries (under WindowSelection, exactly the window after BaseExp),
// offset monotonicity, buffer lengths consistent with bitmap population
// counts, and plane array sizing. It returns a descriptive error for
// corrupted values, making the format safe to load from untrusted
// files.
func (c *Compressed) Validate() error {
	if err := c.Opts.validate(); err != nil {
		return err
	}
	n := c.Opts.CodewordBits
	if len(c.Planes) != c.Grid.NumFrags()*n {
		return fmt.Errorf("core: %d planes for %d frags × %d bits", len(c.Planes), c.Grid.NumFrags(), n)
	}
	nb := c.Grid.NumBlocks()
	if len(c.HighOff) != nb+1 || len(c.FullOff) != nb+1 {
		return fmt.Errorf("core: offset arrays sized %d/%d, want %d", len(c.HighOff), len(c.FullOff), nb+1)
	}
	if c.HighOff[0] != 0 || c.FullOff[0] != 0 {
		return fmt.Errorf("core: offsets must start at 0")
	}
	if c.HighOff[nb] != int64(len(c.High)) || c.FullOff[nb] != int64(len(c.Full)) {
		return fmt.Errorf("core: final offsets %d/%d do not match buffer lengths %d/%d",
			c.HighOff[nb], c.FullOff[nb], len(c.High), len(c.Full))
	}
	k := c.Opts.WindowSize()
	if len(c.Codebook) != k {
		return fmt.Errorf("core: codebook has %d entries, want %d", len(c.Codebook), k)
	}
	if c.Opts.Selection == WindowSelection {
		// The implicit lookup decodes codeword c as BaseExp + c, so the
		// codebook must spell out that window, as the encoder writes it.
		// Its entries are bytes, so this also holds the window inside
		// [0, 255]: −1 ≤ BaseExp ≤ 255 − k.
		for i, e := range c.Codebook {
			if int(e) != int(c.BaseExp)+1+i {
				return fmt.Errorf("core: codebook entry %d is %d, window starts at %d", i, e, c.BaseExp+1)
			}
		}
	}
	for b := 0; b < nb; b++ {
		if c.HighOff[b+1] < c.HighOff[b] || c.FullOff[b+1] < c.FullOff[b] {
			return fmt.Errorf("core: block %d offsets not monotone", b)
		}
		hi, lo := int64(0), int64(0)
		for f := 0; f < tile.FragsPerBlock; f++ {
			m := c.Indicator(b*tile.FragsPerBlock + f)
			hi += int64(popcount(m))
			lo += int64(tile.FragElems - popcount(m))
		}
		if c.HighOff[b+1]-c.HighOff[b] != hi {
			return fmt.Errorf("core: block %d high span %d, bitmaps say %d", b, c.HighOff[b+1]-c.HighOff[b], hi)
		}
		if c.FullOff[b+1]-c.FullOff[b] != lo {
			return fmt.Errorf("core: block %d full span %d, bitmaps say %d", b, c.FullOff[b+1]-c.FullOff[b], lo)
		}
	}
	return nil
}
