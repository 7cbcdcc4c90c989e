package roofline

import (
	"math"
	"testing"

	"zipserv/internal/gpu"
)

const paperCR = 1.51 // §3.1 average compression ratio

// ridge returns the device's ridge point — the compute intensity at
// which it transitions from memory- to compute-bound.
func ridge(spec gpu.Spec) float64 {
	return spec.BF16TFLOPS * 1e12 / (spec.MemBWGBps * 1e9)
}

func TestFig5CIDegradation(t *testing.T) {
	// §3.3: for M=K=4096 the decoupled pipeline degrades CI by 62.3%,
	// 62.2%, 62.0% and 61.7% at N = 8, 16, 32, 64.
	wants := map[int]float64{8: 0.623, 16: 0.622, 32: 0.620, 64: 0.617}
	for n, want := range wants {
		gemm := CIGemm(4096, 4096, n)
		dec := CIDecoupled(4096, 4096, n, paperCR)
		got := 1 - dec/gemm
		if math.Abs(got-want) > 0.005 {
			t.Errorf("N=%d: CI degradation %.4f, paper %.3f", n, got, want)
		}
	}
}

func TestFig5ZipServCIGain(t *testing.T) {
	// §3.3: ZipServ's fused CI is ≈50% higher than the uncompressed
	// GEMM in the memory-bound regime.
	for _, n := range []int{8, 16, 32, 64} {
		gain := CIZipServ(4096, 4096, n, paperCR)/CIGemm(4096, 4096, n) - 1
		if gain < 0.40 || gain > 0.55 {
			t.Errorf("N=%d: ZipServ CI gain %.3f outside [0.40, 0.55] (paper ≈0.50)", n, gain)
		}
	}
}

func TestCIOrdering(t *testing.T) {
	// Decoupled < GEMM < ZipServ for every decode-regime shape.
	for _, n := range []int{1, 8, 32, 128} {
		d := CIDecoupled(8192, 8192, n, paperCR)
		g := CIGemm(8192, 8192, n)
		z := CIZipServ(8192, 8192, n, paperCR)
		if !(d < g && g < z) {
			t.Errorf("N=%d: ordering violated (dec %.2f, gemm %.2f, zip %.2f)", n, d, g, z)
		}
	}
}

func TestCIConvergesAtLargeN(t *testing.T) {
	// As N → ∞ activations dominate traffic and all three pipelines'
	// CI converge (this is why prefill uses the decoupled path: the
	// weight-traffic advantage vanishes).
	n := 1 << 20
	g := CIGemm(4096, 4096, n)
	z := CIZipServ(4096, 4096, n, paperCR)
	d := CIDecoupled(4096, 4096, n, paperCR)
	if z/g > 1.01 || g/d > 1.01 {
		t.Errorf("large-N CIs did not converge: gemm %.1f, zip %.1f, dec %.1f", g, z, d)
	}
}

func TestAttainableAndRidge(t *testing.T) {
	spec := gpu.MustByName("RTX4090")
	r := ridge(spec)
	// Below the ridge: memory bound, linear in CI.
	lo := Attainable(spec, r/2)
	if math.Abs(lo-r/2*spec.MemBWGBps*1e9) > 1 {
		t.Errorf("below-ridge attainable %.3e, want linear in CI", lo)
	}
	// Above the ridge: flat at peak.
	hi := Attainable(spec, r*10)
	if hi != spec.BF16TFLOPS*1e12 {
		t.Errorf("above-ridge attainable %.3e, want peak %.3e", hi, spec.BF16TFLOPS*1e12)
	}
	// Decode shapes sit far below the ridge on every modelled GPU
	// (the premise of the whole paper).
	for _, name := range gpu.Names() {
		s := gpu.MustByName(name)
		if ci := CIGemm(4096, 4096, 32); ci > ridge(s) {
			t.Errorf("%s: decode GEMM CI %.1f above ridge %.1f", s.Name, ci, ridge(s))
		}
	}
}

func TestFigure5Sweep(t *testing.T) {
	spec := gpu.MustByName("RTX4090")
	pts := Figure5(spec, 4096, []int{8, 16, 32, 64}, paperCR)
	if len(pts) != 12 {
		t.Fatalf("Figure5 returned %d points, want 12", len(pts))
	}
	for _, p := range pts {
		if p.CI <= 0 || p.Attainable <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
		// All Figure-5 decode points are memory-bound: attainable
		// scales linearly with CI.
		want := p.CI * spec.MemBWGBps * 1e9
		if p.Attainable != want && p.Attainable != spec.BF16TFLOPS*1e12 {
			t.Errorf("point %+v: attainable does not follow the roofline", p)
		}
	}
}
