// Package bf16 implements the Brain Floating Point 16 (BF16) scalar
// format and dense BF16 matrices, the numeric substrate of ZipServ.
//
// A BF16 value is the top 16 bits of an IEEE-754 binary32: 1 sign bit,
// 8 exponent bits and 7 mantissa bits. It preserves the full FP32
// exponent range while truncating precision, which is why the exponent
// field of LLM weights carries so little information (§2.2, §3.1 of the
// paper) — the property the TCA-TBE codec exploits.
//
// All conversions here are bit-exact and total: NaNs, infinities,
// subnormals and signed zeros round-trip unchanged through
// FromBits/Bits, and FromFloat32 uses round-to-nearest-even, matching
// the hardware convert instructions on NVIDIA Tensor Cores, Google
// TPUs and Intel AMX.
package bf16

import (
	"math"
)

// Field layout constants for the 1-8-7 BF16 format.
const (
	SignBits     = 1
	ExponentBits = 8
	MantissaBits = 7

	// ExponentBias is the IEEE excess-127 bias shared with FP32.
	ExponentBias = 127

	// ExponentMax is the largest raw exponent field value (all ones,
	// reserved for Inf/NaN).
	ExponentMax = (1 << ExponentBits) - 1

	signMask     = 0x8000
	exponentMask = 0x7F80
	mantissaMask = 0x007F
)

// BF16 is a single bfloat16 value stored in its raw bit representation.
// The zero value is positive zero.
type BF16 uint16

// FromBits reinterprets a raw 16-bit pattern as a BF16 value.
func FromBits(b uint16) BF16 { return BF16(b) }

// Bits returns the raw 16-bit pattern of x.
func (x BF16) Bits() uint16 { return uint16(x) }

// FromFloat32 converts f to BF16 with round-to-nearest-even, the
// rounding mode used by hardware BF16 converts. NaN inputs are
// canonicalised to a quiet NaN that preserves the sign bit.
func FromFloat32(f float32) BF16 {
	u := math.Float32bits(f)
	if isNaN32(u) {
		// Quiet NaN with the top mantissa bit set so the payload
		// survives truncation to 16 bits.
		return BF16(uint16(u>>16) | 0x0040)
	}
	// Round to nearest even: add half an ULP of the destination,
	// plus one more when the bit that will become the LSB is set.
	u += 0x7FFF + ((u >> 16) & 1)
	return BF16(u >> 16)
}

// Float32 widens x to float32 exactly (BF16 ⊂ FP32, so this is lossless).
func (x BF16) Float32() float32 {
	return math.Float32frombits(uint32(x) << 16)
}

// Float64 widens x to float64 exactly.
func (x BF16) Float64() float64 { return float64(x.Float32()) }

// Sign reports the raw sign bit (0 for positive, 1 for negative).
func (x BF16) Sign() uint16 { return uint16(x) >> 15 }

// Exponent reports the raw 8-bit exponent field (biased by 127).
func (x BF16) Exponent() uint8 { return uint8((uint16(x) & exponentMask) >> MantissaBits) }

// Mantissa reports the raw 7-bit mantissa field.
func (x BF16) Mantissa() uint8 { return uint8(uint16(x) & mantissaMask) }

// Assemble builds a BF16 from raw sign, exponent and mantissa fields.
// Only the low bit of sign, all 8 bits of exponent, and the low 7 bits
// of mantissa are used. This is the "MakeBF16" step of the paper's
// Algorithm 2 (fast exponent reassembly).
func Assemble(sign uint16, exponent uint8, mantissa uint8) BF16 {
	return BF16((sign&1)<<15 | uint16(exponent)<<MantissaBits | uint16(mantissa)&mantissaMask)
}

// PackSignMantissa packs the sign and mantissa of x into a single byte
// (sign in bit 7, mantissa in bits 0–6). This is the 8-bit
// PackedSignMantissa representation used for in-window elements in
// TCA-TBE (§4.2).
func (x BF16) PackSignMantissa() uint8 {
	return uint8(x.Sign()<<7) | x.Mantissa()
}

// UnpackSignMantissa splits a PackedSignMantissa byte back into its
// sign and mantissa fields.
func UnpackSignMantissa(p uint8) (sign uint16, mantissa uint8) {
	return uint16(p >> 7), p & 0x7F
}

// IsNaN reports whether x is a NaN (max exponent, nonzero mantissa).
func (x BF16) IsNaN() bool {
	return x.Exponent() == ExponentMax && x.Mantissa() != 0
}

// IsInf reports whether x is ±Inf (max exponent, zero mantissa).
func (x BF16) IsInf() bool {
	return x.Exponent() == ExponentMax && x.Mantissa() == 0
}

// Abs returns x with the sign bit cleared.
func (x BF16) Abs() BF16 { return x &^ signMask }

func isNaN32(u uint32) bool {
	return u&0x7F800000 == 0x7F800000 && u&0x007FFFFF != 0
}
