package bf16

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFieldExtraction(t *testing.T) {
	cases := []struct {
		name     string
		bits     uint16
		sign     uint16
		exponent uint8
		mantissa uint8
	}{
		{"one", 0x3F80, 0, 127, 0},
		{"negOne", 0xBF80, 1, 127, 0},
		{"two", 0x4000, 0, 128, 0},
		{"half", 0x3F00, 0, 126, 0},
		{"posZero", 0x0000, 0, 0, 0},
		{"negZero", 0x8000, 1, 0, 0},
		{"inf", 0x7F80, 0, 255, 0},
		{"negInf", 0xFF80, 1, 255, 0},
		{"nan", 0x7FC0, 0, 255, 0x40},
		{"maxMantissa", 0x3FFF, 0, 127, 0x7F},
		{"subnormal", 0x0001, 0, 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x := FromBits(c.bits)
			if got := x.Sign(); got != c.sign {
				t.Errorf("Sign() = %d, want %d", got, c.sign)
			}
			if got := x.Exponent(); got != c.exponent {
				t.Errorf("Exponent() = %d, want %d", got, c.exponent)
			}
			if got := x.Mantissa(); got != c.mantissa {
				t.Errorf("Mantissa() = %d, want %d", got, c.mantissa)
			}
		})
	}
}

func TestAssembleRoundTripAllBitPatterns(t *testing.T) {
	// Exhaustive: every one of the 65536 bit patterns must survive
	// field extraction + reassembly. This is the foundation of the
	// codec's bit-exactness guarantee.
	for u := 0; u <= math.MaxUint16; u++ {
		x := FromBits(uint16(u))
		y := Assemble(x.Sign(), x.Exponent(), x.Mantissa())
		if x != y {
			t.Fatalf("bit pattern %#04x: assemble(fields) = %#04x", u, y.Bits())
		}
	}
}

func TestPackSignMantissaRoundTrip(t *testing.T) {
	for u := 0; u <= math.MaxUint16; u++ {
		x := FromBits(uint16(u))
		p := x.PackSignMantissa()
		sign, mant := UnpackSignMantissa(p)
		if sign != x.Sign() || mant != x.Mantissa() {
			t.Fatalf("pattern %#04x: pack/unpack gave sign=%d mant=%#x, want sign=%d mant=%#x",
				u, sign, mant, x.Sign(), x.Mantissa())
		}
	}
}

func TestFloat32WideningExact(t *testing.T) {
	// Widening BF16 → FP32 → BF16 must be the identity for every
	// pattern, including NaNs (payload preserved by bit shifting),
	// infinities, and subnormals.
	for u := 0; u <= math.MaxUint16; u++ {
		x := FromBits(uint16(u))
		f := x.Float32()
		back := math.Float32bits(f)
		if back>>16 != uint32(u) || back&0xFFFF != 0 {
			t.Fatalf("pattern %#04x: Float32 bits = %#08x, want %#04x0000", u, back, u)
		}
	}
}

func TestFromFloat32Exact(t *testing.T) {
	// Values exactly representable in BF16 must convert without change.
	cases := []float32{0, 1, -1, 0.5, 2, -3, 0.25, 1.5, 65280, -65280, 1.0 / 256}
	for _, f := range cases {
		x := FromFloat32(f)
		if got := x.Float32(); got != f {
			t.Errorf("FromFloat32(%g).Float32() = %g", f, got)
		}
	}
}

func TestFromFloat32RoundToNearestEven(t *testing.T) {
	cases := []struct {
		name string
		in   uint32 // FP32 bits
		want uint16 // BF16 bits
	}{
		// 1.0 + half ULP of BF16 (0x3F808000) ties to even → 1.0.
		{"tieToEvenDown", 0x3F808000, 0x3F80},
		// 1.0078125 + half ULP (0x3F818000) ties to even → round up to 0x3F82.
		{"tieToEvenUp", 0x3F818000, 0x3F82},
		// Just above half ULP rounds up.
		{"aboveHalfUp", 0x3F808001, 0x3F81},
		// Just below half ULP rounds down.
		{"belowHalfDown", 0x3F807FFF, 0x3F80},
		// Rounding can carry into the exponent: 1.9999999 → 2.0.
		{"carryIntoExponent", 0x3FFFFFFF, 0x4000},
		// Large finite FP32 near BF16 max rounds to +Inf.
		{"overflowToInf", 0x7F7FFFFF, 0x7F80},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := FromFloat32(math.Float32frombits(c.in))
			if got.Bits() != c.want {
				t.Errorf("FromFloat32(%#08x) = %#04x, want %#04x", c.in, got.Bits(), c.want)
			}
		})
	}
}

func TestFromFloat32NaN(t *testing.T) {
	n := FromFloat32(float32(math.NaN()))
	if !n.IsNaN() {
		t.Fatalf("FromFloat32(NaN) = %#04x, not a NaN", n.Bits())
	}
	// Signalling NaN with payload only in the low bits must remain a
	// NaN after truncation (quieting), not become Inf.
	s := math.Float32frombits(0x7F800001)
	q := FromFloat32(s)
	if !q.IsNaN() {
		t.Fatalf("FromFloat32(sNaN) = %#04x, not a NaN", q.Bits())
	}
	neg := FromFloat32(math.Float32frombits(0xFF800001))
	if !neg.IsNaN() || neg.Sign() != 1 {
		t.Fatalf("FromFloat32(-sNaN) = %#04x, want negative NaN", neg.Bits())
	}
}

func TestClassifiers(t *testing.T) {
	cases := []struct {
		bits     uint16
		nan, inf bool
	}{
		{0x0000, false, false},
		{0x8000, false, false},
		{0x7F80, false, true},
		{0xFF80, false, true},
		{0x7FC0, true, false},
		{0x7F81, true, false},
		{0x0001, false, false},
		{0x807F, false, false},
		{0x3F80, false, false},
	}
	for _, c := range cases {
		x := FromBits(c.bits)
		if x.IsNaN() != c.nan || x.IsInf() != c.inf {
			t.Errorf("pattern %#04x: classifiers (%v,%v), want (%v,%v)",
				c.bits, x.IsNaN(), x.IsInf(), c.nan, c.inf)
		}
	}
}

func TestNegAbs(t *testing.T) {
	if FromBits(0xBF80).Abs() != FromBits(0x3F80) {
		t.Error("Abs(-1) != 1")
	}
	if FromBits(0x8000).Abs() != FromBits(0x0000) {
		t.Error("Abs(-0) != +0")
	}
}

func TestQuickRoundTripFloat32(t *testing.T) {
	// Property: converting an arbitrary float32 to BF16 and widening
	// back yields a value within one BF16 ULP of the input (or both
	// NaN). quick generates arbitrary float32s including extremes.
	f := func(in float32) bool {
		x := FromFloat32(in)
		out := x.Float32()
		if math.IsNaN(float64(in)) {
			return x.IsNaN()
		}
		if math.IsInf(float64(in), 0) {
			return x.IsInf() && (out < 0) == (in < 0)
		}
		// |in - out| must be at most half a ULP of the BF16 grid at
		// |in|'s magnitude: 2^(exp-127-7) rounded up.
		diff := math.Abs(float64(in) - float64(out))
		ulp := math.Ldexp(1, int(x.Exponent())-ExponentBias-MantissaBits)
		if x.Exponent() == 0 { // subnormal grid
			ulp = math.Ldexp(1, 1-ExponentBias-MantissaBits)
		}
		if x.IsInf() { // rounded up to infinity near the top of range
			return math.Abs(float64(in)) > 3.3e38
		}
		return diff <= ulp/2+1e-45
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestQuickAssembleInverse(t *testing.T) {
	// Property: Assemble is a left inverse of field extraction for
	// arbitrary 16-bit patterns.
	f := func(u uint16) bool {
		x := FromBits(u)
		return Assemble(x.Sign(), x.Exponent(), x.Mantissa()) == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
