package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"zipserv/internal/bf16"
)

func gaussianMatrix(t testing.TB, n int, sigma float64, seed int64) *bf16.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := bf16.NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = bf16.FromFloat32(float32(rng.NormFloat64() * sigma))
	}
	return m
}

func TestHistogramBasics(t *testing.T) {
	m := bf16.NewMatrix(2, 2)
	m.Data[0] = bf16.FromFloat32(1)   // exponent 127
	m.Data[1] = bf16.FromFloat32(2)   // exponent 128
	m.Data[2] = bf16.FromFloat32(0.5) // exponent 126
	m.Data[3] = bf16.FromFloat32(1.5) // exponent 127
	h := ExponentHistogram(m)
	if h.Total() != 4 {
		t.Errorf("Total = %d, want 4", h.Total())
	}
	if h[127] != 2 || h[128] != 1 || h[126] != 1 {
		t.Errorf("histogram = {126:%d 127:%d 128:%d}", h[126], h[127], h[128])
	}
	var other Histogram
	other[127] = 10
	h.Add(other)
	if h[127] != 12 {
		t.Errorf("after Add, h[127] = %d, want 12", h[127])
	}
}

func TestEntropyBounds(t *testing.T) {
	var uniform Histogram
	for i := range uniform {
		uniform[i] = 7
	}
	if e := uniform.Entropy(); math.Abs(e-8) > 1e-9 {
		t.Errorf("uniform entropy = %f, want 8", e)
	}
	var point Histogram
	point[100] = 1000
	if e := point.Entropy(); e != 0 {
		t.Errorf("point-mass entropy = %f, want 0", e)
	}
	var empty Histogram
	if e := empty.Entropy(); e != 0 {
		t.Errorf("empty entropy = %f, want 0", e)
	}
}

func TestGaussianMatchesPaperSection31(t *testing.T) {
	// §3.1 on real LLMs: entropy 2.57–2.74 bits, top-3 > 67%,
	// top-7 > 95%, window-7 coverage ≈ 97.1%, theoretical ratio ≈ 1.51.
	// Appendix A says these follow from Gaussian weights, so our
	// synthetic weights must land in (a slightly widened version of)
	// the same bands.
	h := ExponentHistogram(gaussianMatrix(t, 512, 0.02, 1))
	if e := h.Entropy(); e < 2.4 || e > 2.9 {
		t.Errorf("entropy %.3f outside [2.4, 2.9]", e)
	}
	if c := h.TopKCoverage(3); c < 0.60 {
		t.Errorf("top-3 coverage %.3f < 0.60", c)
	}
	if c := h.TopKCoverage(7); c < 0.95 {
		t.Errorf("top-7 coverage %.3f < 0.95", c)
	}
	if c := h.BestWindowCoverage(7); c < 0.95 {
		t.Errorf("window-7 coverage %.3f < 0.95", c)
	}
	if r := h.TheoreticalRatio(); r < 1.45 || r > 1.60 {
		t.Errorf("theoretical ratio %.3f outside [1.45, 1.60]", r)
	}
	if !h.TopKIsContiguous(7) {
		t.Error("top-7 exponents of Gaussian weights are not contiguous")
	}
}

func TestTopKIsContiguousNegativeCase(t *testing.T) {
	var h Histogram
	h[100], h[101], h[150] = 50, 40, 45 // top-3 split across a gap
	if h.TopKIsContiguous(3) {
		t.Error("gap histogram reported contiguous")
	}
	// Top-2 is {100, 150}: split across a gap, so non-contiguous too.
	if h.TopKIsContiguous(2) {
		t.Error("top-2 {100,150} reported contiguous")
	}
}

func TestTopKIsContiguousEdgeCases(t *testing.T) {
	var h Histogram
	h[5] = 1
	if !h.TopKIsContiguous(1) {
		t.Error("k=1 is always contiguous")
	}
	if h.TopKIsContiguous(0) || h.TopKIsContiguous(300) {
		t.Error("out-of-range k must report false")
	}
}

func TestBestWindowCoverageVsTopK(t *testing.T) {
	// Window coverage can never exceed top-k coverage (the window is a
	// constrained selection).
	h := ExponentHistogram(gaussianMatrix(t, 256, 0.05, 3))
	for _, k := range []int{1, 3, 7, 15} {
		topk := h.TopKCoverage(k)
		win := h.BestWindowCoverage(k)
		if win > topk+1e-12 {
			t.Errorf("k=%d: window %.6f > top-k %.6f", k, win, topk)
		}
	}
}

func TestAverageBitsMatchesPaper(t *testing.T) {
	// §4.2 with the paper's measured coverages: r3 ≈ 0.96 → 11.3 bits;
	// the 2- and 4-bit alternatives are worse (12.4 and 12.1).
	b3 := AverageBits(3, 0.9625)
	if math.Abs(b3-11.3) > 0.1 {
		t.Errorf("AverageBits(3, .9625) = %.2f, want ≈11.3", b3)
	}
	// r2 is top-3 coverage (§3.1: "top-3 > 67%", ≈0.70) and r4 is
	// top-15 coverage (≈0.9875): back-solved from the paper's 12.4 and
	// 12.1 bit results.
	b2 := AverageBits(2, 0.70)
	if math.Abs(b2-12.4) > 0.2 {
		t.Errorf("AverageBits(2, .70) = %.2f, want ≈12.4", b2)
	}
	b4 := AverageBits(4, 0.9875)
	if math.Abs(b4-12.1) > 0.2 {
		t.Errorf("AverageBits(4, .9875) = %.2f, want ≈12.1", b4)
	}
	if !(b3 < b4 && b4 < b2) {
		t.Errorf("ordering violated: b3=%.2f b4=%.2f b2=%.2f (want b3<b4<b2)", b3, b4, b2)
	}
}

func TestCodewordCoverageMeasured(t *testing.T) {
	// Measured coverages on Gaussian weights must reproduce the
	// paper's choice: n=3 minimises AverageBits.
	h := ExponentHistogram(gaussianMatrix(t, 512, 0.02, 5))
	best := 0
	bestBits := math.Inf(1)
	for n := 2; n <= 4; n++ {
		bits := AverageBits(n, h.CodewordCoverage(n))
		if bits < bestBits {
			bestBits, best = bits, n
		}
	}
	if best != 3 {
		t.Errorf("optimal codeword length on Gaussian weights = %d, paper chooses 3", best)
	}
}

func TestGaussianExponentLawIsDistribution(t *testing.T) {
	for _, sigma := range []float64{1e-4, 0.01, 0.02, 0.1, 1, 100} {
		p := gaussianExponentLaw(sigma)
		sum := 0.0
		for _, v := range p {
			if v < 0 {
				t.Fatalf("σ=%g: negative probability", sigma)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("σ=%g: law sums to %.12f", sigma, sum)
		}
		if p[255] != 0 {
			t.Errorf("σ=%g: finite Gaussian assigns mass to Inf/NaN exponent", sigma)
		}
	}
	// σ=0 degenerates to point mass at zero.
	p := gaussianExponentLaw(0)
	if p[0] != 1 {
		t.Error("σ=0 law is not a point mass at exponent 0")
	}
}

func TestTheoremA1Unimodality(t *testing.T) {
	// Theorem A.1: the law is unimodal for every σ.
	for _, sigma := range []float64{1e-6, 1e-3, 0.02, 0.5, 3, 1e4} {
		p := gaussianExponentLaw(sigma)
		if !isUnimodal(p[:]) {
			t.Errorf("σ=%g: Gaussian exponent law is not unimodal", sigma)
		}
	}
}

func TestTheoremA2ContiguityFollowsFromUnimodality(t *testing.T) {
	// Theorem A.2: for a unimodal law the top-k set is contiguous.
	// Verify on sampled histograms from the law.
	for _, sigma := range []float64{0.01, 0.02, 0.05} {
		p := gaussianExponentLaw(sigma)
		var h Histogram
		for e := range h {
			h[e] = int64(p[e] * 1e9)
		}
		for _, k := range []int{3, 7} {
			if !h.TopKIsContiguous(k) {
				t.Errorf("σ=%g k=%d: top-k of the theoretical law not contiguous", sigma, k)
			}
		}
	}
}

func TestLawPredictsEmpiricalHistogram(t *testing.T) {
	// The empirical exponent histogram of Gaussian draws must match
	// the erf law: compare entropy and window coverage.
	sigma := 0.02
	h := ExponentHistogram(gaussianMatrix(t, 512, sigma, 7))
	p := gaussianExponentLaw(sigma)
	if d := math.Abs(h.Entropy() - expectedEntropy(p[:])); d > 0.1 {
		t.Errorf("entropy gap empirical vs law = %.3f bits", d)
	}
	empCov := h.BestWindowCoverage(7)
	lawCov := expectedWindowCoverage(p[:], 7)
	if d := math.Abs(empCov - lawCov); d > 0.02 {
		t.Errorf("window coverage gap %.4f (empirical %.4f, law %.4f)", d, empCov, lawCov)
	}
}

func TestIsUnimodalCases(t *testing.T) {
	cases := []struct {
		name string
		dist []float64
		want bool
	}{
		{"rising", []float64{1, 2, 3}, true},
		{"falling", []float64{3, 2, 1}, true},
		{"peak", []float64{1, 3, 2}, true},
		{"valley", []float64{3, 1, 2}, false},
		{"plateau", []float64{1, 2, 2, 1}, true},
		{"bimodal", []float64{1, 3, 1, 3, 1}, false},
		{"zeroPadded", []float64{0, 0, 1, 2, 1, 0}, true},
		{"empty", nil, true},
		{"single", []float64{5}, true},
	}
	for _, c := range cases {
		if got := isUnimodal(c.dist); got != c.want {
			t.Errorf("%s: isUnimodal = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestQuickUnimodalImpliesContiguous(t *testing.T) {
	// Property (Theorem A.2 in general form): any unimodal histogram
	// has contiguous top-k for all k. Generate unimodal histograms by
	// construction.
	f := func(peak uint8, leftLen, rightLen uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		p := int(peak)
		// Strictly decreasing from the peak outward ⇒ unimodal with
		// unique values ⇒ top-k must be contiguous for every k.
		val := int64(1 << 40)
		h[p] = val
		left := p - int(leftLen%40) - 1
		right := p + int(rightLen%40) + 1
		lv, rv := val, val
		for i := p - 1; i >= left && i >= 0; i-- {
			lv = lv/2 - int64(rng.Intn(100)) - 1
			if lv <= 0 {
				break
			}
			h[i] = lv
		}
		for i := p + 1; i <= right && i < 256; i++ {
			rv = rv/3 - int64(rng.Intn(100)) - 1
			if rv <= 0 {
				break
			}
			h[i] = rv
		}
		nonZero := 0
		for _, c := range h {
			if c > 0 {
				nonZero++
			}
		}
		for k := 1; k <= nonZero; k++ {
			if !h.TopKIsContiguous(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
