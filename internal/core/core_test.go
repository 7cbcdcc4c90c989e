package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"zipserv/internal/bf16"
	"zipserv/internal/tile"
)

// gaussianMatrix builds a rows×cols BF16 matrix of N(0, sigma²) draws,
// the weight model of Appendix A.
func gaussianMatrix(t testing.TB, rows, cols int, sigma float64, seed int64) *bf16.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := bf16.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = bf16.FromFloat32(float32(rng.NormFloat64() * sigma))
	}
	return m
}

// randomBitsMatrix builds a matrix of uniformly random bit patterns:
// the adversarial input for a lossless codec (includes NaNs, ±Inf,
// subnormals, both zeros, and a flat exponent histogram).
func randomBitsMatrix(t testing.TB, rows, cols int, seed int64) *bf16.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := bf16.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = bf16.FromBits(uint16(rng.Intn(1 << 16)))
	}
	return m
}

func roundTrip(t *testing.T, m *bf16.Matrix, opts Options) *Compressed {
	t.Helper()
	c, err := CompressWithOptions(m, opts)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate after compress: %v", err)
	}
	got, err := Decompress(c)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !m.Equal(got) {
		i := m.FirstDiff(got)
		t.Fatalf("round trip not bit-exact at flat index %d: %#04x → %#04x",
			i, m.Data[i].Bits(), got.Data[i].Bits())
	}
	return c
}

func TestRoundTripGaussian(t *testing.T) {
	// The paper's primary invariant: bit-exact reproduction of
	// Gaussian LLM-like weights across shapes, including non-multiples
	// of the 64×64 BlockTile.
	shapes := []struct{ r, c int }{
		{64, 64}, {128, 128}, {64, 128}, {1, 1}, {7, 9}, {100, 150},
		{63, 65}, {256, 64}, {65, 63}, {512, 512},
	}
	for _, s := range shapes {
		m := gaussianMatrix(t, s.r, s.c, 0.02, int64(s.r*1000+s.c))
		cm := roundTrip(t, m, DefaultOptions())
		// The compression ratio claim only applies to tile-aligned
		// matrices (all real LLM layers are); heavily padded odd
		// shapes pay for encoded padding.
		if s.r%tile.BlockDim == 0 && s.c%tile.BlockDim == 0 && cm.CompressionRatio() < 1.2 {
			t.Errorf("%dx%d: compression ratio %.3f < 1.2 on Gaussian weights",
				s.r, s.c, cm.CompressionRatio())
		}
	}
}

func TestRoundTripAdversarialBits(t *testing.T) {
	// Uniform random bit patterns: almost everything is an outlier, so
	// the format must expand gracefully and still be bit-exact,
	// preserving NaN payloads, infinities, ±0 and subnormals.
	m := randomBitsMatrix(t, 96, 130, 7)
	cm := roundTrip(t, m, DefaultOptions())
	if cm.CompressionRatio() > 1.05 {
		t.Errorf("uniform random bits should not compress, got ratio %.3f", cm.CompressionRatio())
	}
}

func TestRoundTripSpecialValues(t *testing.T) {
	// A matrix densely packed with IEEE special cases.
	specials := []uint16{
		0x0000, 0x8000, // ±0
		0x7F80, 0xFF80, // ±Inf
		0x7FC0, 0x7F81, 0xFFFF, // NaNs with distinct payloads
		0x0001, 0x807F, // subnormals
		0x3F80, 0xBF80, // ±1
		0x0080, 0x7F7F, // smallest normal, largest finite
	}
	m := bf16.NewMatrix(65, 67)
	for i := range m.Data {
		m.Data[i] = bf16.FromBits(specials[i%len(specials)])
	}
	roundTrip(t, m, DefaultOptions())
}

func TestRoundTripConstantMatrix(t *testing.T) {
	// All elements identical: 100% coverage, maximal compression.
	m := bf16.NewMatrix(64, 64)
	for i := range m.Data {
		m.Data[i] = bf16.FromFloat32(0.015625)
	}
	cm := roundTrip(t, m, DefaultOptions())
	if len(cm.Full) != 0 {
		t.Errorf("constant matrix has %d fallback elements, want 0", len(cm.Full))
	}
	// 3 bitmaps (24 B) + 64 high bytes per 64-element frag ⇒ about
	// 11 bits/elem, ratio ≈ 1.45.
	if r := cm.CompressionRatio(); r < 1.4 || r > 1.5 {
		t.Errorf("constant matrix ratio %.3f outside [1.4, 1.5]", r)
	}
}

func TestRoundTripAllZeros(t *testing.T) {
	// Zeros have exponent 0; the window slides to the bottom of the
	// range (BaseExp = −1) and the matrix compresses maximally.
	m := bf16.NewMatrix(70, 70)
	cm := roundTrip(t, m, DefaultOptions())
	if cm.BaseExp != -1 {
		t.Errorf("all-zero matrix BaseExp = %d, want -1", cm.BaseExp)
	}
	if len(cm.Full) != 0 {
		t.Errorf("all-zero matrix has %d fallback elements", len(cm.Full))
	}
}

func TestRoundTripMaxExponentWindow(t *testing.T) {
	// Force the window to the top of the exponent range (Inf/NaN
	// territory): values with exponents 249..255 must round-trip,
	// exercising the BaseExp+code arithmetic at its upper boundary.
	rng := rand.New(rand.NewSource(3))
	m := bf16.NewMatrix(64, 64)
	for i := range m.Data {
		e := uint8(249 + rng.Intn(7))
		m.Data[i] = bf16.Assemble(uint16(rng.Intn(2)), e, uint8(rng.Intn(128)))
	}
	cm := roundTrip(t, m, DefaultOptions())
	if cm.BaseExp != 248 {
		t.Errorf("BaseExp = %d, want 248", cm.BaseExp)
	}
}

func TestRoundTripCodewordBits(t *testing.T) {
	// Ablation A2: 2-, 3- and 4-bit codewords must all be lossless.
	m := gaussianMatrix(t, 128, 96, 0.03, 11)
	for _, n := range []int{2, 3, 4} {
		opts := Options{CodewordBits: n, Selection: WindowSelection}
		cm := roundTrip(t, m, opts)
		if got := len(cm.FragPlanes(0)); got != n {
			t.Errorf("n=%d: %d planes per frag", n, got)
		}
	}
}

func TestRoundTripTopFrequencySelection(t *testing.T) {
	// Ablation A5: explicit-codebook mode must also be lossless, even
	// on weights with a non-contiguous exponent histogram.
	rng := rand.New(rand.NewSource(13))
	m := bf16.NewMatrix(64, 128)
	// Bimodal exponents: two clusters far apart.
	for i := range m.Data {
		var e uint8
		if rng.Intn(2) == 0 {
			e = uint8(100 + rng.Intn(3))
		} else {
			e = uint8(200 + rng.Intn(3))
		}
		m.Data[i] = bf16.Assemble(uint16(rng.Intn(2)), e, uint8(rng.Intn(128)))
	}
	opts := Options{CodewordBits: 3, Selection: TopFrequencySelection}
	cm := roundTrip(t, m, opts)
	// With a codebook, all six populated exponents fit ⇒ no fallbacks.
	if len(cm.Full) != 0 {
		t.Errorf("codebook mode left %d fallbacks on 6-exponent data", len(cm.Full))
	}
	// The contiguous window can cover only one cluster.
	w, err := CompressWithOptions(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Full) == 0 {
		t.Error("window mode unexpectedly covered a bimodal histogram")
	}
}

func TestCompressRejectsBadOptions(t *testing.T) {
	m := bf16.NewMatrix(8, 8)
	for _, opts := range []Options{
		{CodewordBits: 1, Selection: WindowSelection},
		{CodewordBits: 5, Selection: WindowSelection},
		{CodewordBits: 3, Selection: Selection(9)},
	} {
		if _, err := CompressWithOptions(m, opts); err == nil {
			t.Errorf("options %+v accepted, want error", opts)
		}
		if _, err := sizeOf(m, opts); err == nil {
			t.Errorf("SizeOf accepted options %+v, want error", opts)
		}
	}
}

func TestBestWindow(t *testing.T) {
	var hist [256]int64
	for i := 120; i < 127; i++ {
		hist[i] = 100
	}
	hist[126] = 500
	start, covered := BestWindow(hist, 7)
	if start != 120 || covered != 1100 {
		t.Errorf("BestWindow = (%d, %d), want (120, 1100)", start, covered)
	}
	// Tie-break toward lower start.
	var flat [256]int64
	for i := range flat {
		flat[i] = 1
	}
	if s, _ := BestWindow(flat, 7); s != 0 {
		t.Errorf("flat histogram window start = %d, want 0", s)
	}
	// Window at the very top of the range.
	var top [256]int64
	top[255] = 10
	if s, _ := BestWindow(top, 7); s != 249 {
		t.Errorf("top-heavy histogram start = %d, want 249", s)
	}
}

func TestIndicatorMatchesCoverage(t *testing.T) {
	m := gaussianMatrix(t, 64, 64, 0.02, 21)
	cm := roundTrip(t, m, DefaultOptions())
	hi := 0
	for f := 0; f < cm.Grid.NumFrags(); f++ {
		hi += popcount(cm.Indicator(f))
	}
	if hi != len(cm.High) {
		t.Errorf("indicator popcount %d != High length %d", hi, len(cm.High))
	}
	if hi+len(cm.Full) != cm.Grid.PaddedRows*cm.Grid.PaddedCols {
		t.Errorf("high+full = %d, want padded element count %d",
			hi+len(cm.Full), cm.Grid.PaddedRows*cm.Grid.PaddedCols)
	}
}

func TestFragStartsConsistentWithOffsets(t *testing.T) {
	m := gaussianMatrix(t, 130, 200, 0.02, 5)
	cm := roundTrip(t, m, DefaultOptions())
	// Walking all frags sequentially must visit exactly the per-block
	// offsets, and fragStarts must agree with the walk (invariant 4 of
	// DESIGN.md: dynamic addressing is a permutation).
	for b := 0; b < cm.Grid.NumBlocks(); b++ {
		h, l := cm.HighOff[b], cm.FullOff[b]
		for f := 0; f < tile.FragsPerBlock; f++ {
			frag := b*tile.FragsPerBlock + f
			gh, gl := fragStarts(cm, frag)
			if gh != h || gl != l {
				t.Fatalf("frag %d: fragStarts (%d,%d), walk says (%d,%d)", frag, gh, gl, h, l)
			}
			hi := popcount(cm.Indicator(frag))
			h += int64(hi)
			l += int64(tile.FragElems - hi)
		}
		if h != cm.HighOff[b+1] || l != cm.FullOff[b+1] {
			t.Fatalf("block %d: walk ends at (%d,%d), offsets say (%d,%d)",
				b, h, l, cm.HighOff[b+1], cm.FullOff[b+1])
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	// Invariant 3: encoded size is exactly 8·n bytes of bitmaps per
	// FragTile + 1 byte per in-window element + 2 bytes per outlier +
	// offsets + header + codebook.
	m := gaussianMatrix(t, 100, 100, 0.02, 17)
	cm := roundTrip(t, m, DefaultOptions())
	want := 32 + 8*3*cm.Grid.NumFrags() + len(cm.High) + 2*len(cm.Full) +
		8*2*(cm.Grid.NumBlocks()+1) + len(cm.Codebook)
	if got := cm.SizeBytes(); got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
}

// sizeOf returns the exact size CompressWithOptions(m, opts) would
// encode m to, through SizeOfHistogram, the size-first path KV freezes
// take without encoding.
func sizeOf(m *bf16.Matrix, opts Options) (int, error) {
	hist := exponentHistogram(m)
	return SizeOfHistogram(&hist, m.Rows, m.Cols, opts)
}

// TestSizeOfMatchesCompress is SizeOfHistogram's oracle: on random shapes up to
// 200×200 (mostly partial tiles, so the padding term counts) and three
// value distributions, it equals the encoded payload's SizeBytes under
// every option set.
func TestSizeOfMatchesCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sets := append(referenceOptions[:len(referenceOptions):len(referenceOptions)],
		Options{CodewordBits: 2, Selection: TopFrequencySelection})
	for i := 0; i < 40; i++ {
		rows, cols, seed := 1+rng.Intn(200), 1+rng.Intn(200), rng.Int63()
		for _, m := range []*bf16.Matrix{
			gaussianMatrix(t, rows, cols, 0.02, seed),
			randomBitsMatrix(t, rows, cols, seed),
			bimodalMatrix(rows, cols, seed),
		} {
			for _, opts := range sets {
				cm, err := CompressWithOptions(m, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := sizeOf(m, opts); err != nil || got != cm.SizeBytes() {
					t.Fatalf("%d×%d under %+v: SizeOf = %d, %v; SizeBytes = %d", rows, cols, opts, got, err, cm.SizeBytes())
				}
			}
		}
	}
}

func TestGaussianCompressionRatioNearPaper(t *testing.T) {
	// §3.1: BF16 LLM weights compress at ≈1.5× under a 7-exponent
	// window (theoretical 1.51×; measured model footprints ~71%).
	// Gaussian weights must land in that neighbourhood.
	m := gaussianMatrix(t, 512, 512, 0.02, 99)
	cm := roundTrip(t, m, DefaultOptions())
	if r := cm.CompressionRatio(); r < 1.35 || r > 1.55 {
		t.Errorf("Gaussian ratio %.3f outside [1.35, 1.55]", r)
	}
	if cov := cm.CoverageRatio(); cov < 0.93 {
		t.Errorf("window coverage %.3f < 0.93 on Gaussian weights", cov)
	}
	if bpe := cm.BitsPerElement(); math.Abs(bpe-11.3) > 0.8 {
		t.Errorf("bits/element %.2f, paper reports ≈11.3", bpe)
	}
}

func TestDecodeFragMatchesDecompress(t *testing.T) {
	m := gaussianMatrix(t, 128, 128, 0.02, 31)
	cm := roundTrip(t, m, DefaultOptions())
	g := cm.Grid
	var fv FragView
	for frag := 0; frag < g.NumFrags(); frag += 7 { // sample
		h, l := fragStarts(cm, frag)
		cm.DecodeFragAt(frag, h, l, &fv, nil)
		b, f := frag/tile.FragsPerBlock, frag%tile.FragsPerBlock
		for p := 0; p < tile.FragElems; p++ {
			r, c := g.FromCoord(tile.Coord{Block: b, Frag: f, Pos: p})
			if !g.InBounds(r, c) {
				continue
			}
			if fv[p] != m.At(r, c) {
				t.Fatalf("frag %d pos %d: decoded %#04x, matrix has %#04x",
					frag, p, fv[p].Bits(), m.At(r, c).Bits())
			}
		}
	}
}

func TestCountersDeterministicAndPlausible(t *testing.T) {
	m := gaussianMatrix(t, 128, 128, 0.02, 41)
	cm, err := Compress(m)
	if err != nil {
		t.Fatal(err)
	}
	_, c1, err := DecompressCounted(cm)
	if err != nil {
		t.Fatal(err)
	}
	_, c2, err := DecompressCounted(cm)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("counters are not deterministic across runs")
	}
	if c1.Elements != int64(cm.Grid.PaddedRows*cm.Grid.PaddedCols) {
		t.Errorf("Elements = %d, want %d", c1.Elements, cm.Grid.PaddedRows*cm.Grid.PaddedCols)
	}
	// Exactly one POPC per element (the paper's dynamic addressing).
	if c1.POPC != c1.Elements {
		t.Errorf("POPC = %d, want one per element (%d)", c1.POPC, c1.Elements)
	}
	// One value-buffer LDS per element, plus codebook loads only in
	// table mode.
	if c1.LDS != c1.Elements {
		t.Errorf("LDS = %d, want %d in implicit-lookup mode", c1.LDS, c1.Elements)
	}
	if c1.BytesRead != int64(cm.SizeBytes()) {
		t.Errorf("BytesRead = %d, want compressed size %d", c1.BytesRead, cm.SizeBytes())
	}
	// Figure 12(a): LOP3 and IADD dominate; each should exceed 2 ops
	// per element on mostly-high-path data.
	if c1.LOP3 < 2*c1.Elements || c1.IADD < c1.Elements {
		t.Errorf("implausibly low ALU counts: LOP3=%d IADD=%d for %d elements",
			c1.LOP3, c1.IADD, c1.Elements)
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{LOP3: 1, IADD: 2, SHF: 3, POPC: 4, LDS: 5, BytesRead: 6, Elements: 7}
	b := a
	a.Add(b)
	want := Counters{LOP3: 2, IADD: 4, SHF: 6, POPC: 8, LDS: 10, BytesRead: 12, Elements: 14}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	fresh := func() *Compressed {
		m := gaussianMatrix(t, 64, 64, 0.02, 51)
		cm, err := Compress(m)
		if err != nil {
			t.Fatal(err)
		}
		return cm
	}
	mutations := map[string]func(*Compressed){
		"truncatedPlanes": func(c *Compressed) { c.Planes = c.Planes[:len(c.Planes)-1] },
		"offsetStart":     func(c *Compressed) { c.HighOff[0] = 1 },
		"offsetEnd":       func(c *Compressed) { c.FullOff[len(c.FullOff)-1]++ },
		"indicatorFlip": func(c *Compressed) {
			// Flip a bit at a fallback position in every plane of some
			// frag: the indicator popcount changes, so the per-block
			// offsets no longer match the bitmaps.
			for f := 0; f < c.Grid.NumFrags(); f++ {
				m := c.Indicator(f)
				if m != ^uint64(0) {
					var p uint
					for p = 0; p < 64; p++ {
						if m>>p&1 == 0 {
							break
						}
					}
					c.Planes[f*c.Opts.CodewordBits] |= 1 << p
					return
				}
			}
			c.HighOff[0] = 1 // all-ones indicator everywhere: fall back
		},
		"badCodewordBits":  func(c *Compressed) { c.Opts.CodewordBits = 9 },
		"shortOffsetArray": func(c *Compressed) { c.HighOff = c.HighOff[:1] },
		// Headers no encoder writes: the implicit lookup would wrap
		// uint8(BaseExp+code) and decode a different matrix.
		"baseExp300":    func(c *Compressed) { rebase(c, 300) },
		"baseExp250":    func(c *Compressed) { rebase(c, 250) },
		"baseExpMinus5": func(c *Compressed) { rebase(c, -5) },
		"baseExpOnly":   func(c *Compressed) { c.BaseExp++ },
		"emptyCodebook": func(c *Compressed) { c.Codebook = nil },
		"codebookEntry": func(c *Compressed) { c.Codebook[3]++ },
		"shortTopFrequencyCodebook": func(c *Compressed) {
			c.Opts.Selection = TopFrequencySelection
			c.Codebook = c.Codebook[:len(c.Codebook)-1]
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			c := fresh()
			mutate(c)
			if err := c.Validate(); err == nil {
				t.Error("corruption not detected")
			}
			var buf bytes.Buffer
			if _, err := c.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := new(Compressed).ReadFrom(&buf); err == nil {
				t.Error("ReadFrom accepted the corrupted payload")
			}
		})
	}
}

// rebase moves a window payload's BaseExp and rewrites its codebook as
// the window's bytes would read, wrapping at 256 like the decoder's
// uint8(BaseExp+code).
func rebase(c *Compressed, base int16) {
	c.BaseExp = base
	for i := range c.Codebook {
		c.Codebook[i] = uint8(int(base) + 1 + i)
	}
}

func TestDecompressRejectsInvalid(t *testing.T) {
	m := gaussianMatrix(t, 64, 64, 0.02, 61)
	cm, err := Compress(m)
	if err != nil {
		t.Fatal(err)
	}
	// Set a plane bit at a fallback position so the indicator popcount
	// disagrees with the recorded offsets.
	for f := 0; f < cm.Grid.NumFrags(); f++ {
		if m := cm.Indicator(f); m != ^uint64(0) {
			var p uint
			for p = 0; p < 64; p++ {
				if m>>p&1 == 0 {
					break
				}
			}
			cm.Planes[f*cm.Opts.CodewordBits] |= 1 << p
			break
		}
	}
	if _, err := Decompress(cm); err == nil {
		t.Error("Decompress accepted corrupted bitmaps")
	}
}

func TestCompressEmptyMatrix(t *testing.T) {
	if _, err := Compress(&bf16.Matrix{}); err == nil {
		t.Error("expected error compressing empty matrix")
	}
	if _, err := sizeOf(&bf16.Matrix{Rows: 4}, DefaultOptions()); err == nil {
		t.Error("SizeOf accepted an empty matrix")
	}
}
