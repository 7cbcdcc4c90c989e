package zipgemm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"zipserv/internal/bf16"
	"zipserv/internal/codec"
	"zipserv/internal/core"
	"zipserv/internal/weights"
)

func activations(t testing.TB, k, n int, seed int64) *bf16.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := bf16.NewMatrix(k, n)
	for i := range x.Data {
		x.Data[i] = bf16.FromFloat32(float32(rng.NormFloat64()))
	}
	return x
}

func TestReferenceKnownValues(t *testing.T) {
	// 2×2 · 2×1 with exactly representable values.
	w := bf16.FromFloat32Matrix(2, 2, []float32{1, 2, 3, 4})
	x := bf16.FromFloat32Matrix(2, 1, []float32{5, 6})
	y, err := Reference(w, x)
	if err != nil {
		t.Fatal(err)
	}
	if y.At(0, 0) != 17 || y.At(1, 0) != 39 {
		t.Errorf("Y = [%g %g], want [17 39]", y.At(0, 0), y.At(1, 0))
	}
}

func TestReferenceShapeErrors(t *testing.T) {
	w := bf16.NewMatrix(4, 4)
	if _, err := Reference(w, bf16.NewMatrix(5, 2)); err == nil {
		t.Error("mismatched K accepted")
	}
	if _, err := Reference(w, bf16.NewMatrix(4, 0)); err == nil {
		t.Error("zero-column activations accepted")
	}
	if _, err := Reference(&bf16.Matrix{}, bf16.NewMatrix(0, 1)); err == nil {
		t.Error("empty weight matrix accepted")
	}
}

func TestFusedEqualsReferenceGaussian(t *testing.T) {
	// Invariant 2 of DESIGN.md: ZipGEMM on compressed weights is
	// bit-identical to dense GEMM on the original weights — the
	// paper's bit-exact inference guarantee, across shapes including
	// ragged (non-tile-multiple) ones.
	shapes := []struct{ m, k, n int }{
		{64, 64, 1}, {64, 64, 8}, {128, 64, 32}, {64, 128, 16},
		{100, 100, 4}, {65, 130, 3}, {256, 192, 33}, {1, 1, 1},
	}
	for _, s := range shapes {
		w := weights.Gaussian(s.m, s.k, 0.02, int64(s.m*7+s.k*3+s.n))
		x := activations(t, s.k, s.n, 99)
		ref, err := Reference(w, x)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		cw, err := core.Compress(w)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		got, err := Fused(cw, x)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !ref.Equal(got) {
			t.Errorf("shape %v: fused result differs from reference", s)
		}
	}
}

func TestFusedEqualsReferenceWithOutliers(t *testing.T) {
	w := weights.GaussianWithOutliers(128, 128, 0.02, 0.05, 5)
	x := activations(t, 128, 16, 6)
	ref, _ := Reference(w, x)
	cw, err := core.Compress(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Fused(cw, x)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Equal(got) {
		t.Error("fused differs from reference on outlier-heavy weights")
	}
}

func TestFusedSpecialValues(t *testing.T) {
	// Inf and NaN weights must propagate identically through both
	// kernels (bit-exact serving can carry non-finite junk weights).
	w := bf16.NewMatrix(64, 64)
	for i := range w.Data {
		w.Data[i] = bf16.FromFloat32(0.01)
	}
	w.Set(0, 0, bf16.FromBits(0x7F80)) // +Inf
	w.Set(1, 1, bf16.FromBits(0x7FC0)) // NaN
	w.Set(2, 2, bf16.FromBits(0x8000)) // -0
	x := activations(t, 64, 4, 7)
	ref, _ := Reference(w, x)
	cw, _ := core.Compress(w)
	got, err := Fused(cw, x)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Equal(got) {
		t.Error("special values broke fused/reference equality")
	}
	if !isNaN32(ref.At(1, 0)) {
		t.Error("NaN weight did not propagate to output row")
	}
	if !math.IsInf(float64(ref.At(0, 0)), 0) && !isNaN32(ref.At(0, 0)) {
		t.Error("Inf weight did not propagate to output row")
	}
}

func TestFusedAllCodewordModes(t *testing.T) {
	w := weights.Gaussian(128, 128, 0.025, 11)
	x := activations(t, 128, 8, 12)
	ref, _ := Reference(w, x)
	for _, opts := range []core.Options{
		{CodewordBits: 2, Selection: core.WindowSelection},
		{CodewordBits: 3, Selection: core.WindowSelection},
		{CodewordBits: 4, Selection: core.WindowSelection},
		{CodewordBits: 3, Selection: core.TopFrequencySelection},
	} {
		cw, err := core.CompressWithOptions(w, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		got, err := Fused(cw, x)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !ref.Equal(got) {
			t.Errorf("%+v: fused differs from reference", opts)
		}
	}
}

func TestDecoupledEqualsFused(t *testing.T) {
	// The decoupled pipeline and the fused kernel must agree exactly:
	// the paper's comparison is purely about performance, never
	// results.
	w := weights.Gaussian(192, 128, 0.02, 13)
	x := activations(t, 128, 8, 14)
	for _, name := range codec.Names() {
		c, err := codec.New(name)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := c.Compress(w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dec, err := Decoupled(blob, x)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, _ := Reference(w, x)
		if !ref.Equal(dec) {
			t.Errorf("%s: decoupled pipeline differs from reference", name)
		}
	}
}

func TestFusedShapeErrors(t *testing.T) {
	w := weights.Gaussian(64, 64, 0.02, 17)
	cw, _ := core.Compress(w)
	if _, err := Fused(cw, bf16.NewMatrix(65, 2)); err == nil {
		t.Error("mismatched activation rows accepted")
	}
	if _, err := Fused(cw, bf16.NewMatrix(64, 0)); err == nil {
		t.Error("zero-column activations accepted")
	}
}

func TestQuickFusedEqualsReference(t *testing.T) {
	f := func(seed int64, mSel, kSel, nSel uint8) bool {
		m := int(mSel%100) + 1
		k := int(kSel%100) + 1
		n := int(nSel%16) + 1
		w := weights.Gaussian(m, k, 0.03, seed)
		x := activations(t, k, n, seed+1)
		ref, err := Reference(w, x)
		if err != nil {
			return false
		}
		cw, err := core.Compress(w)
		if err != nil {
			return false
		}
		got, err := Fused(cw, x)
		if err != nil {
			return false
		}
		return ref.Equal(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkReference256(b *testing.B) {
	w := weights.Gaussian(256, 256, 0.02, 1)
	x := activations(b, 256, 32, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reference(w, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFused256(b *testing.B) {
	w := weights.Gaussian(256, 256, 0.02, 1)
	x := activations(b, 256, 32, 2)
	cw, err := core.Compress(w)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fused(cw, x); err != nil {
			b.Fatal(err)
		}
	}
}
