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
	// Phase II: tile encoding. Blocks are visited row-major; frags in
	// storage order; positions row-major within each frag — the same
	// order the decoder uses, so offsets line up with no per-element
	// index metadata. Blocks are independent, so they encode in
	// parallel across GOMAXPROCS workers into per-block buffers that
	// are stitched in order afterwards: output bytes are identical to
	// the sequential encoder's (the checkpoint tests rely on that
	// determinism). A one-block matrix — every KV block — encodes
	// inline straight into its own buffers.
	g := c.Grid
	nb := g.NumBlocks()
	c.Planes = make([]uint64, g.NumFrags()*opts.CodewordBits)
	c.HighOff = make([]int64, nb+1)
	c.FullOff = make([]int64, nb+1)
	if nb == 1 {
		c.High, c.Full = c.encodeBlock(m, 0)
		c.HighOff[1], c.FullOff[1] = int64(len(c.High)), int64(len(c.Full))
		return c, nil
	}

	highs := make([][]uint8, nb)
	fulls := make([][]uint16, nb)
	parallelBlocks(nb, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			highs[b], fulls[b] = c.encodeBlock(m, b)
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

// SizeOfHistogram returns the exact size CompressWithOptions would
// encode a rows×cols matrix to — its SizeBytes — knowing only the
// matrix's exponent histogram, which must count every one of its
// elements, and rejects the shapes and options CompressWithOptions
// rejects.
//
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
// slices of m.Data found through the FragTile-origin table and encoded
// a row at a time: encodeRow yields the row's eight codewords, one per
// byte, and one multiply-gather per bit-plane moves bit b of each into
// the plane's byte for that row (codes are below 2^CodewordBits, so
// the planes past CodewordBits gather zeros and are not stored).
func (c *Compressed) encodeBlock(m *bf16.Matrix, b int) (high []uint8, full []uint16) {
	// One exponent → codeword table serves both selection modes and
	// every element: 0 marks an outlier. Each block builds its own, on
	// its stack, so no worker shares it.
	var codes [256]uint8
	for i, e := range c.Codebook {
		codes[e] = uint8(i + 1)
	}
	var hs [tile.FragsPerBlock * tile.FragElems]uint8
	var fs [tile.FragsPerBlock * tile.FragElems]uint16
	nh, nf := 0, 0
	br, bc := c.Grid.BlockOrigin(b)
	for f := 0; f < tile.FragsPerBlock; f++ {
		fr, fc := tile.FragOrigin(f)
		var planes [4]uint64
		for r := 0; r < tile.FragDim; r++ {
			var row uint64
			row, nh, nf = encodeRow(fragRow(m, br+fr+r, bc+fc), &codes, &hs, &fs, nh, nf)
			s := uint(8 * r)
			planes[0] |= gather(row) << s
			planes[1] |= gather(row>>1) << s
			planes[2] |= gather(row>>2) << s
			planes[3] |= gather(row>>3) << s
		}
		copy(c.FragPlanes(b*tile.FragsPerBlock+f), planes[:])
	}
	high = make([]uint8, nh)
	copy(high, hs[:nh])
	full = make([]uint16, nf)
	copy(full, fs[:nf])
	return high, full
}

// encodeRow encodes one FragTile row whose in-bounds elements are row
// (eight, or fewer — possibly none — where the tile overhangs the
// matrix edge): each in-window element's PackedSignMantissa byte goes
// to hs at nh and each outlier's bits to fs at nf, in position order.
// It returns the row's codewords, position k's in byte k, and the
// advanced counts. A full row whose eight codes are all in-window (the
// common case) writes its eight bytes straight through; any other row
// takes the per-position loop, where clipped-off padding encodes as
// codeword 1 with zero sign/mantissa — one High byte each, never read
// back.
func encodeRow(row []bf16.BF16, codes *[256]uint8, hs *[tile.FragsPerBlock * tile.FragElems]uint8,
	fs *[tile.FragsPerBlock * tile.FragElems]uint16, nh, nf int) (uint64, int, int) {
	const padCode = 1
	var c8 uint64
	if len(row) == tile.FragDim {
		// Unrolled by hand, as is the store below: the compiler does not
		// unroll loops, and these two lines carry most rows.
		w := (*[tile.FragDim]bf16.BF16)(row)
		c8 = uint64(codes[w[0].Exponent()]) | uint64(codes[w[1].Exponent()])<<8 |
			uint64(codes[w[2].Exponent()])<<16 | uint64(codes[w[3].Exponent()])<<24 |
			uint64(codes[w[4].Exponent()])<<32 | uint64(codes[w[5].Exponent()])<<40 |
			uint64(codes[w[6].Exponent()])<<48 | uint64(codes[w[7].Exponent()])<<56
		// Codes are at most 15, so adding 0x7f to a byte sets its top
		// bit exactly when the code is non-zero, with no carry out.
		if (c8+0x7f7f7f7f7f7f7f7f)&0x8080808080808080 == 0x8080808080808080 {
			out := (*[tile.FragDim]uint8)(hs[nh:])
			out[0], out[1] = w[0].PackSignMantissa(), w[1].PackSignMantissa()
			out[2], out[3] = w[2].PackSignMantissa(), w[3].PackSignMantissa()
			out[4], out[5] = w[4].PackSignMantissa(), w[5].PackSignMantissa()
			out[6], out[7] = w[6].PackSignMantissa(), w[7].PackSignMantissa()
			return c8, nh + tile.FragDim, nf
		}
	}
	c8 = 0
	for k := 0; k < tile.FragDim; k++ {
		code, v := uint8(padCode), bf16.BF16(0)
		if k < len(row) {
			v = row[k]
			code = codes[v.Exponent()]
		}
		if code != 0 {
			hs[nh] = v.PackSignMantissa()
			nh++
		} else {
			fs[nf] = v.Bits()
			nf++
		}
		c8 |= uint64(code) << (8 * k)
	}
	return c8, nh, nf
}

// gather packs bit 0 of each byte of x into one byte, byte k's into
// bit k. The multiplier is Σ 2^(7j+7) over j = 0…7, so bit 8k of the
// masked x lands on bit 8k+7j+7: on bit 56+k for j = 7−k, and for every
// other j on a bit below 56 or above 63 that no other partial product
// shares, so the sum carries nothing into the top byte. The decoder's
// spread table inverts it.
func gather(x uint64) uint64 {
	return (x & 0x0101010101010101) * 0x0102040810204080 >> 56
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

// concat joins per-block buffers in block order.
func concat[T any](parts [][]T) []T {
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
