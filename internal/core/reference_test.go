package core

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"zipserv/internal/bf16"
	"zipserv/internal/tile"
)

// The reference codec: the per-element encoder and decoder that the
// table-driven production path replaced, kept as its oracle. Every
// element goes through Grid.FromCoord + InBounds, codewords come from
// BaseExp arithmetic or a linear codebook search, and the decoder
// gathers code bits one plane at a time. Phase I (exponent analysis)
// is shared: the table-driven rewrite did not touch it.

// fragStarts returns the High and Full buffer offsets at which global
// FragTile frag begins. Offsets are stored only per BlockTile (the
// paper's GroupTile offset array); within a block they are derived by
// summing indicator popcounts of the preceding frags — the same
// prefix-sum the GPU performs warp-locally. Production decoders track
// the offsets incrementally; this random-access form is their oracle.
func fragStarts(c *Compressed, frag int) (startH, startL int64) {
	b := frag / tile.FragsPerBlock
	startH, startL = c.HighOff[b], c.FullOff[b]
	for f := b * tile.FragsPerBlock; f < frag; f++ {
		hi := popcount(c.Indicator(f))
		startH += int64(hi)
		startL += int64(tile.FragElems - hi)
	}
	return startH, startL
}

// referenceCode returns the 1-based codeword for exponent e, or 0 if e
// is an outlier.
func referenceCode(c *Compressed, e uint8) int {
	if c.Opts.Selection == WindowSelection {
		d := int(e) - int(c.BaseExp)
		if d >= 1 && d <= c.Opts.WindowSize() {
			return d
		}
		return 0
	}
	for i, ce := range c.Codebook {
		if ce == e {
			return i + 1
		}
	}
	return 0
}

// referenceExponent reconstructs the exponent of codeword code
// (1-based): BaseExp + code under WindowSelection, the codebook entry
// under TopFrequencySelection.
func referenceExponent(c *Compressed, code int) uint8 {
	if c.Opts.Selection == WindowSelection {
		return uint8(int(c.BaseExp) + code)
	}
	return c.Codebook[code-1]
}

// referenceCompress encodes m sequentially, one element at a time, in
// (block, frag, position) order.
func referenceCompress(m *bf16.Matrix, opts Options) (*Compressed, error) {
	c, err := newCompressed(m, opts)
	if err != nil {
		return nil, err
	}
	const padCode = 1
	n := opts.CodewordBits
	g := c.Grid
	c.Planes = make([]uint64, g.NumFrags()*n)
	c.HighOff = make([]int64, g.NumBlocks()+1)
	c.FullOff = make([]int64, g.NumBlocks()+1)
	c.High, c.Full = []uint8{}, []uint16{}
	for b := 0; b < g.NumBlocks(); b++ {
		for f := 0; f < tile.FragsPerBlock; f++ {
			planes := c.FragPlanes(b*tile.FragsPerBlock + f)
			for p := 0; p < tile.FragElems; p++ {
				r, col := g.FromCoord(tile.Coord{Block: b, Frag: f, Pos: p})
				var w bf16.BF16
				code := padCode // padding: sign 0, mantissa 0
				if g.InBounds(r, col) {
					w = m.At(r, col)
					code = referenceCode(c, w.Exponent())
				}
				if code != 0 {
					for bit := 0; bit < n; bit++ {
						planes[bit] |= uint64((code>>bit)&1) << p
					}
					c.High = append(c.High, w.PackSignMantissa())
				} else {
					c.Full = append(c.Full, w.Bits())
				}
			}
		}
		c.HighOff[b+1] = int64(len(c.High))
		c.FullOff[b+1] = int64(len(c.Full))
	}
	return c, nil
}

// referenceDecodeFrag decodes one FragTile with Algorithm 2, gathering
// each codeword bit by bit.
func referenceDecodeFrag(c *Compressed, frag int, startH, startL int64, out *FragView, ctr *Counters) {
	n := c.Opts.CodewordBits
	planes := c.FragPlanes(frag)
	m := c.Indicator(frag)
	for p := uint(0); p < tile.FragElems; p++ {
		idxH := popcount(m & (uint64(1)<<p - 1))
		if m>>p&1 == 1 {
			code := 0
			for bit := 0; bit < n; bit++ {
				code |= int(planes[bit]>>p&1) << bit
			}
			sign, mant := bf16.UnpackSignMantissa(c.High[startH+int64(idxH)])
			out[p] = bf16.Assemble(sign, referenceExponent(c, code), mant)
		} else {
			out[p] = bf16.FromBits(c.Full[startL+int64(int(p)-idxH)])
		}
	}
	if ctr != nil {
		ctr.Add(fragDecodeCost(n, popcount(m), c.Opts.Selection == WindowSelection))
	}
}

// referenceDecompress decodes every FragTile and scatters it element by
// element through FromCoord, discarding padding.
func referenceDecompress(c *Compressed) (*bf16.Matrix, Counters, error) {
	var ctr Counters
	if err := c.Validate(); err != nil {
		return nil, ctr, err
	}
	g := c.Grid
	m := bf16.NewMatrix(g.Rows, g.Cols)
	var fv FragView
	for b := 0; b < g.NumBlocks(); b++ {
		startH, startL := c.HighOff[b], c.FullOff[b]
		for f := 0; f < tile.FragsPerBlock; f++ {
			frag := b*tile.FragsPerBlock + f
			referenceDecodeFrag(c, frag, startH, startL, &fv, &ctr)
			for p := 0; p < tile.FragElems; p++ {
				r, col := g.FromCoord(tile.Coord{Block: b, Frag: f, Pos: p})
				if g.InBounds(r, col) {
					m.Set(r, col, fv[p])
				}
			}
			hi := popcount(c.Indicator(frag))
			startH += int64(hi)
			startL += int64(tile.FragElems - hi)
		}
	}
	ctr.BytesRead = int64(c.SizeBytes())
	return m, ctr, nil
}

// referenceOptions are the option sets the fast codec is checked
// under: every supported codeword length with the contiguous window,
// plus the explicit-codebook ablation.
var referenceOptions = []Options{
	{CodewordBits: 2, Selection: WindowSelection},
	{CodewordBits: 3, Selection: WindowSelection},
	{CodewordBits: 4, Selection: WindowSelection},
	{CodewordBits: 3, Selection: TopFrequencySelection},
}

// checkAgainstReference requires the production codec to match the
// reference on m: identical serialized bytes, identical decoded
// matrices (both equal to m), identical decoder counters, and identical
// random-access FragTile decodes.
func checkAgainstReference(t testing.TB, m *bf16.Matrix, opts Options) {
	t.Helper()
	fast, err := CompressWithOptions(m, opts)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	ref, err := referenceCompress(m, opts)
	if err != nil {
		t.Fatalf("referenceCompress: %v", err)
	}
	var fb, rb bytes.Buffer
	if _, err := fast.WriteTo(&fb); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.WriteTo(&rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb.Bytes(), rb.Bytes()) {
		t.Fatalf("%+v: serialized bytes differ from the reference encoder's (%d vs %d bytes)",
			opts, fb.Len(), rb.Len())
	}

	want, wantCtr, err := referenceDecompress(ref)
	if err != nil {
		t.Fatalf("referenceDecompress: %v", err)
	}
	if !want.Equal(m) {
		t.Fatalf("%+v: reference round trip not bit-exact at %d", opts, m.FirstDiff(want))
	}
	got, err := Decompress(fast)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("%+v: decoded matrix differs from the reference decoder's at %d", opts, want.FirstDiff(got))
	}
	counted, ctr, err := DecompressCounted(fast)
	if err != nil {
		t.Fatalf("DecompressCounted: %v", err)
	}
	if !counted.Equal(want) || ctr != wantCtr {
		t.Fatalf("%+v: counted decode differs from the reference (counters %+v vs %+v)", opts, ctr, wantCtr)
	}

	var fv, rv FragView
	for frag := 0; frag < fast.Grid.NumFrags(); frag++ {
		h, l := fragStarts(ref, frag)
		fast.DecodeFragAt(frag, h, l, &fv, nil)
		referenceDecodeFrag(ref, frag, h, l, &rv, nil)
		if fv != rv {
			t.Fatalf("%+v: DecodeFragAt(%d) differs from the reference decoder", opts, frag)
		}
	}
}

// narrowBandMatrix mimics the synthesized KV blocks: a xorshift stream
// in (−1/16, 1/16), whose clustered exponents the codec exploits.
func narrowBandMatrix(rows, cols int, seed int64) *bf16.Matrix {
	m := bf16.NewMatrix(rows, cols)
	x := uint64(seed)*0x9e3779b97f4a7c15 | 1
	for i := range m.Data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m.Data[i] = bf16.FromFloat32(float32(int64(x>>40)-(1<<23)) / float32(1<<27))
	}
	return m
}

// bimodalMatrix draws exponents from two clusters far apart: a
// contiguous window covers only one, a codebook covers both.
func bimodalMatrix(rows, cols int, seed int64) *bf16.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := bf16.NewMatrix(rows, cols)
	for i := range m.Data {
		e := uint8(100 + rng.Intn(4))
		if rng.Intn(2) == 0 {
			e = uint8(200 + rng.Intn(4))
		}
		m.Data[i] = bf16.Assemble(uint16(rng.Intn(2)), e, uint8(rng.Intn(128)))
	}
	return m
}

// TestFastCodecMatchesReference runs the table-driven codec and the
// per-element reference side by side over partial-tile, single-tile
// (the 16×256 KV block) and multi-block shapes, three value
// distributions and every option set.
func TestFastCodecMatchesReference(t *testing.T) {
	shapes := []struct{ r, c int }{
		{1, 1}, {7, 9}, {63, 65}, {65, 63}, {16, 256}, {64, 64}, {130, 200},
	}
	dists := []struct {
		name string
		gen  func(rows, cols int, seed int64) *bf16.Matrix
	}{
		{"gaussian", func(r, c int, seed int64) *bf16.Matrix { return gaussianMatrix(t, r, c, 0.02, seed) }},
		{"random-bits", func(r, c int, seed int64) *bf16.Matrix { return randomBitsMatrix(t, r, c, seed) }},
		{"narrow-band", narrowBandMatrix},
		{"bimodal", bimodalMatrix},
	}
	for _, s := range shapes {
		for di, d := range dists {
			m := d.gen(s.r, s.c, int64(s.r*1000+s.c*10+di))
			for _, opts := range referenceOptions {
				t.Run(fmt.Sprintf("%dx%d/%s/n%d-%s", s.r, s.c, d.name, opts.CodewordBits, opts.Selection), func(t *testing.T) {
					checkAgainstReference(t, m, opts)
				})
			}
		}
	}
}

// rowPatternMatrix builds a rows×cols matrix whose elements take the
// codewords code assigns: code c ≥ 1 is exponent 119+c, and code 0, an
// outlier, cycles through exponents 140…239. Every in-window exponent
// is used more often than any outlier one, so Phase I picks exactly the
// window — or the codebook — 120…119+k, and the encoder writes the
// codes asked for.
func rowPatternMatrix(rows, cols int, seed int64, code func(i, j int) int) *bf16.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := bf16.NewMatrix(rows, cols)
	outliers := 0
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			e := 119 + code(i, j)
			if e == 119 {
				e = 140 + outliers%100
				outliers++
			}
			m.Set(i, j, bf16.Assemble(uint16(rng.Intn(2)), uint8(e), uint8(rng.Intn(128))))
		}
	}
	return m
}

// rowPatterns gives the FragTile row at matrix row i, columns 8J…8J+7,
// pattern (i+3J) mod 10: 0 all in-window, 1 all outliers, 2…9 exactly
// one outlier, at position 0…7. In-window codes cycle through 1…k.
func rowPatterns(k int) func(i, j int) int {
	return func(i, j int) int {
		p := j % tile.FragDim
		if q := (i + 3*(j/tile.FragDim)) % 10; q == 1 || q == p+2 {
			return 0
		}
		return 1 + (i+p)%k
	}
}

// planeBytes, over eight columns, gives bit-plane b every byte value x:
// row 512b+x with every position in-window, row 512b+256+x with the
// positions whose bit is clear as outliers. Rows past the n planes
// cycle through all k codes.
func planeBytes(k int) func(i, j int) int {
	n := bits.Len(uint(k))
	return func(i, j int) int {
		b, x := i/512, i%256
		if b >= n {
			return 1 + (i+j)%k
		}
		bit := x >> j & 1 << b
		switch {
		case i%512 >= 256:
			return bit
		case b == 0:
			return 2 | bit
		}
		return 1 | bit
	}
}

// TestRowPathsMatchReference drives both row paths of the codec — the
// all-in-window fast path and the per-position loop — through every
// row shape, under every option set: all in-window, all outliers, one
// outlier at each position, every byte value in every bit-plane, and
// rows and columns clipped at every residue 1…7 mod 8.
func TestRowPathsMatchReference(t *testing.T) {
	type shape struct {
		name       string
		rows, cols int
		code       func(k int) func(i, j int) int
	}
	shapes := []shape{
		{"patterns", 64, 64, rowPatterns},
		{"patterns-multiblock", 80, 136, rowPatterns},
		{"plane-bytes", 4*512 + 256, 8, planeBytes},
	}
	for s := 1; s < tile.FragDim; s++ {
		shapes = append(shapes, shape{fmt.Sprintf("clipped-%d", s), 16 + s, 24 + tile.FragDim - s, rowPatterns})
	}
	for si, sh := range shapes {
		for _, opts := range referenceOptions {
			k := opts.WindowSize()
			t.Run(fmt.Sprintf("%s/n%d-%s", sh.name, opts.CodewordBits, opts.Selection), func(t *testing.T) {
				m := rowPatternMatrix(sh.rows, sh.cols, int64(si), sh.code(k))
				c, err := CompressWithOptions(m, opts)
				if err != nil {
					t.Fatal(err)
				}
				for i, e := range c.Codebook {
					if int(e) != 120+i {
						t.Fatalf("Phase I picked codebook %v, want 120…%d", c.Codebook, 119+k)
					}
				}
				checkAgainstReference(t, m, opts)
			})
		}
	}
}
