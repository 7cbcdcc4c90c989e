package codec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"zipserv/internal/bf16"
)

func gaussianMatrix(t testing.TB, rows, cols int, sigma float64, seed int64) *bf16.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := bf16.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = bf16.FromFloat32(float32(rng.NormFloat64() * sigma))
	}
	return m
}

func TestRegistryHasAllFour(t *testing.T) {
	want := []string{NameDFloat11, NameDietGPU, NameNvComp, NameZipServ}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestNewUnknownCodec(t *testing.T) {
	if _, err := New("zstd"); err == nil {
		t.Error("unknown codec accepted")
	}
}

func TestAllCodecsLosslessOnGaussian(t *testing.T) {
	// Invariant 7 of DESIGN.md: every codec in the comparison is
	// bit-exact, so speed comparisons are between equal-fidelity
	// systems.
	m := gaussianMatrix(t, 128, 192, 0.02, 1)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			c, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			if c.Name() != name {
				t.Errorf("Name() = %q, want %q", c.Name(), name)
			}
			blob, err := c.Compress(m)
			if err != nil {
				t.Fatal(err)
			}
			if blob.Codec() != name {
				t.Errorf("blob.Codec() = %q, want %q", blob.Codec(), name)
			}
			got, err := blob.Decompress()
			if err != nil {
				t.Fatal(err)
			}
			if !m.Equal(got) {
				t.Errorf("%s is not bit-exact at index %d", name, m.FirstDiff(got))
			}
			if blob.OriginalBytes() != m.SizeBytes() {
				t.Errorf("OriginalBytes = %d, want %d", blob.OriginalBytes(), m.SizeBytes())
			}
		})
	}
}

func TestAllCodecsLosslessOnAdversarialBits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := bf16.NewMatrix(77, 91)
	for i := range m.Data {
		m.Data[i] = bf16.FromBits(uint16(rng.Intn(1 << 16)))
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			c, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := c.Compress(m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := blob.Decompress()
			if err != nil {
				t.Fatal(err)
			}
			if !m.Equal(got) {
				t.Errorf("%s mangled adversarial bit patterns", name)
			}
		})
	}
}

func TestCompressionRatiosOrdering(t *testing.T) {
	// On Gaussian weights every codec should land in the 1.3–1.6×
	// band (§3.1: theoretical bound 1.51×, DFloat11 reports ~70%
	// size = 1.43×). The entropy coders should be at or above
	// ZipServ's fixed-length ratio, and nvCOMP pays framing overhead
	// relative to DietGPU.
	m := gaussianMatrix(t, 512, 512, 0.02, 3)
	ratios := map[string]float64{}
	for _, name := range Names() {
		c, _ := New(name)
		blob, err := c.Compress(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ratios[name] = Ratio(blob)
	}
	t.Logf("ratios: %v", ratios)
	for name, r := range ratios {
		if r < 1.30 || r > 1.65 {
			t.Errorf("%s ratio %.3f outside [1.30, 1.65]", name, r)
		}
	}
	// TCA-TBE's fixed-length design gives up only a little ratio vs
	// entropy coding (§4.2: 11.3 bits/elem vs 10.6 bound ⇒ ≤10%).
	if ratios[NameZipServ] < ratios[NameDFloat11]*0.88 {
		t.Errorf("ZipServ ratio %.3f more than 12%% below DFloat11 %.3f",
			ratios[NameZipServ], ratios[NameDFloat11])
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	Register(NameZipServ, func() Codec { return ZipServ{} })
}

func TestQuickAllCodecsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		m := gaussianMatrix(t, 64, 64, 0.05, seed)
		for _, name := range Names() {
			c, err := New(name)
			if err != nil {
				return false
			}
			blob, err := c.Compress(m)
			if err != nil {
				return false
			}
			got, err := blob.Decompress()
			if err != nil || !m.Equal(got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
