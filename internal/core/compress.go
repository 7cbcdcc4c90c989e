package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"

	"zipserv/internal/bf16"
	"zipserv/internal/tile"
)

// Compress encodes a BF16 weight matrix into TCA-TBE form using the
// paper's default configuration (3-bit codewords, contiguous window).
// It implements Algorithm 1: a global exponent-analysis phase followed
// by per-tile encoding. The encoding is lossless: Decompress returns
// the original matrix bit-for-bit.
func Compress(m *bf16.Matrix) (*Compressed, error) {
	return CompressWithOptions(m, DefaultOptions())
}

// CompressWithOptions encodes m with explicit codec options.
func CompressWithOptions(m *bf16.Matrix, opts Options) (*Compressed, error) {
	c, err := newCompressed(m, opts)
	if err != nil {
		return nil, err
	}
	// One exponent → codeword table serves both selection modes and
	// every element: 0 marks an outlier.
	var codes [256]uint8
	for i, e := range c.Codebook {
		codes[e] = uint8(i + 1)
	}

	// Phase II: tile encoding. Blocks are visited row-major; frags in
	// storage order; positions row-major within each frag — the same
	// order the decoder uses, so offsets line up with no per-element
	// index metadata. Blocks are independent, so they encode in
	// parallel across GOMAXPROCS workers into per-block buffers that
	// are stitched in order afterwards: output bytes are identical to
	// the sequential encoder's (the checkpoint tests rely on that
	// determinism).
	g := c.Grid
	nb := g.NumBlocks()
	c.Planes = make([]uint64, g.NumFrags()*opts.CodewordBits)
	c.HighOff = make([]int64, nb+1)
	c.FullOff = make([]int64, nb+1)

	highs := make([][]uint8, nb)
	fulls := make([][]uint16, nb)
	parallelBlocks(nb, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			highs[b], fulls[b] = c.encodeBlock(m, b, &codes)
		}
	})
	for b := 0; b < nb; b++ {
		c.HighOff[b+1] = c.HighOff[b] + int64(len(highs[b]))
		c.FullOff[b+1] = c.FullOff[b] + int64(len(fulls[b]))
	}
	c.High, c.Full = concat(highs), concat(fulls)
	return c, nil
}

// newCompressed validates the inputs and runs Phase I, the global
// exponent analysis: it picks the in-window exponents and records them
// as BaseExp and Codebook on an otherwise empty Compressed.
func newCompressed(m *bf16.Matrix, opts Options) (*Compressed, error) {
	if err := checkInput(m.Rows, m.Cols, opts); err != nil {
		return nil, err
	}
	hist := exponentHistogram(m)
	cb := selectExponents(&hist, opts)
	return &Compressed{
		Grid:     tile.NewGrid(m.Rows, m.Cols),
		Opts:     opts,
		BaseExp:  int16(cb[0]) - 1, // informational under TopFrequencySelection
		Codebook: append([]uint8(nil), cb[:opts.WindowSize()]...),
	}, nil
}

// SizeOf returns the exact size CompressWithOptions(m, opts) would
// encode m to — its SizeBytes — without encoding it, and rejects the
// inputs CompressWithOptions rejects.
func SizeOf(m *bf16.Matrix, opts Options) (int, error) {
	hist := exponentHistogram(m)
	return SizeOfHistogram(&hist, m.Rows, m.Cols, opts)
}

// SizeOfHistogram is SizeOf for a rows×cols matrix known only by its
// exponent histogram, which must count every one of its elements.
// TCA-TBE is fixed-length (§4.2), so the size is a closed form of
// Phase I's choice: each in-window element and each padding element
// (codeword 1, one byte each) costs a PackedSignMantissa byte, each
// outlier a 2-byte FullValue, and the bit-planes, offsets, codebook and
// header depend on the geometry alone. No bit is packed.
func SizeOfHistogram(hist *[256]int64, rows, cols int, opts Options) (int, error) {
	if err := checkInput(rows, cols, opts); err != nil {
		return 0, err
	}
	cb := selectExponents(hist, opts)
	k := opts.WindowSize()
	high := 0
	for _, e := range cb[:k] {
		high += int(hist[e])
	}
	g := tile.NewGrid(rows, cols)
	elems := rows * cols
	pad := g.PaddedRows*g.PaddedCols - elems
	return footprint(g.NumFrags()*opts.CodewordBits, high+pad, elems-high, 2*(g.NumBlocks()+1), k), nil
}

// checkInput rejects what the codec cannot encode: invalid options or
// an empty matrix.
func checkInput(rows, cols int, opts Options) error {
	if err := opts.validate(); err != nil {
		return err
	}
	if rows <= 0 || cols <= 0 {
		return fmt.Errorf("core: cannot compress empty %d×%d matrix", rows, cols)
	}
	return nil
}

// maxWindowSize is the widest supported window: 2^4−1 exponents.
const maxWindowSize = 1<<4 - 1

// selectExponents is Phase I's choice: the opts.WindowSize() in-window
// exponents, ascending, so codeword c encodes exponent cb[c-1] — the
// best contiguous window (cb[0] is then BaseExp+1, the implicit
// lookup's base) or the individually most frequent exponents.
func selectExponents(hist *[256]int64, opts Options) (cb [maxWindowSize]uint8) {
	k := opts.WindowSize()
	switch opts.Selection {
	case WindowSelection:
		start, _ := BestWindow(*hist, k)
		for i := range cb[:k] {
			cb[i] = uint8(start + i)
		}
	case TopFrequencySelection:
		copy(cb[:], topExponents(*hist, k))
	}
	return cb
}

// encodeBlock encodes one 64×64 BlockTile, writing its bit-planes into
// the shared Planes array (disjoint region per block) and returning
// its value buffers, sized exactly. Each FragTile is read as eight row
// slices of m.Data found through the FragTile-origin table, and codes
// come from the exponent → codeword table. Where a tile overhangs the
// matrix edge its rows are clipped, and the clipped-off padding encodes
// as codeword 1 with zero sign/mantissa — one High byte each, never
// read back.
func (c *Compressed) encodeBlock(m *bf16.Matrix, b int, codes *[256]uint8) (high []uint8, full []uint16) {
	const padCode = 1
	var hs [tile.FragsPerBlock * tile.FragElems]uint8
	var fs [tile.FragsPerBlock * tile.FragElems]uint16
	nh, nf := 0, 0
	n := c.Opts.CodewordBits
	br, bc := c.Grid.BlockOrigin(b)
	for f := 0; f < tile.FragsPerBlock; f++ {
		fr, fc := tile.FragOrigin(f)
		var planes [4]uint64
		for r := 0; r < tile.FragDim; r++ {
			p := uint(r * tile.FragDim)
			for _, w := range fragRow(m, br+fr+r, bc+fc) {
				if code := codes[w.Exponent()]; code != 0 {
					setCode(&planes, code, p)
					hs[nh] = w.PackSignMantissa()
					nh++
				} else {
					fs[nf] = w.Bits()
					nf++
				}
				p++
			}
			for ; p < uint(r+1)*tile.FragDim; p++ {
				setCode(&planes, padCode, p)
				hs[nh] = 0
				nh++
			}
		}
		frag := b*tile.FragsPerBlock + f
		copy(c.Planes[frag*n:frag*n+n], planes[:n])
	}
	high = make([]uint8, nh)
	copy(high, hs[:nh])
	full = make([]uint16, nf)
	copy(full, fs[:nf])
	return high, full
}

// setCode ORs codeword code (at most 4 bits) into bit position p of
// the bit-planes; planes beyond CodewordBits stay zero.
func setCode(planes *[4]uint64, code uint8, p uint) {
	planes[0] |= uint64(code&1) << p
	planes[1] |= uint64(code>>1&1) << p
	planes[2] |= uint64(code>>2&1) << p
	planes[3] |= uint64(code>>3&1) << p
}

// fragRow returns the in-bounds elements of the FragTile row starting
// at padded coordinates (r, c): all eight inside the matrix, fewer
// (possibly none) where the tile overhangs its edge.
func fragRow(m *bf16.Matrix, r, c int) []bf16.BF16 {
	if r >= m.Rows || c >= m.Cols {
		return nil
	}
	i := r*m.Cols + c
	return m.Data[i : i+min(tile.FragDim, m.Cols-c)]
}

// concat joins per-block buffers in block order. A one-block matrix —
// every KV block — keeps its block's buffer instead of a copy.
func concat[T any](parts [][]T) []T {
	if len(parts) == 1 {
		return parts[0]
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// parallelBlocks splits [0, n) into contiguous chunks across
// GOMAXPROCS workers.
func parallelBlocks(n int, work func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		work(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			work(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// exponentHistogram counts the raw 8-bit exponent field of every
// in-bounds element.
func exponentHistogram(m *bf16.Matrix) [256]int64 {
	var hist [256]int64
	for _, w := range m.Data {
		hist[w.Exponent()]++
	}
	return hist
}

// BestWindow returns the start of the width-k window over exponent
// values [0,255] with maximal total count, and that count. Ties are
// broken toward the lower start, making compression deterministic.
// This is SelectTop7ConsecutiveExponents of Algorithm 1 (generalised
// to any k).
func BestWindow(hist [256]int64, k int) (start int, covered int64) {
	if k <= 0 || k > 256 {
		panic(fmt.Sprintf("core: window width %d out of range", k))
	}
	var sum int64
	for i := 0; i < k; i++ {
		sum += hist[i]
	}
	best, bestStart := sum, 0
	for s := 1; s+k <= 256; s++ {
		sum += hist[s+k-1] - hist[s-1]
		if sum > best {
			best, bestStart = sum, s
		}
	}
	return bestStart, best
}

// topExponents returns the k individually most frequent exponent
// values, sorted ascending (deterministic tie-break by value).
func topExponents(hist [256]int64, k int) []uint8 {
	type ec struct {
		e uint8
		n int64
	}
	all := make([]ec, 256)
	for i := range all {
		all[i] = ec{uint8(i), hist[i]}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].e < all[j].e
	})
	top := make([]uint8, k)
	for i := 0; i < k; i++ {
		top[i] = all[i].e
	}
	sort.Slice(top, func(i, j int) bool { return top[i] < top[j] })
	return top
}

func popcount(x uint64) int { return bits.OnesCount64(x) }
