// Package fp16 implements IEEE 754 binary16 (half precision) rounding
// in software.
//
// Bolt's evaluation runs entirely in FP16 on tensor cores; this package
// is the numeric substrate that stands in for the GPU's native half
// type. Kernels compute in float32, exactly as CUDA device code promotes
// __half to float inside the MMA pipeline's FP32 accumulators, and
// Round/Quantize model the store to half. Float16 holds a raw uint16
// bit pattern for the conversions that define that rounding.
package fp16

import "math"

// Float16 is an IEEE 754 binary16 value stored as its raw bit pattern:
// 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
type Float16 uint16

// Useful constants.
const (
	// PositiveInfinity is the binary16 +Inf bit pattern.
	PositiveInfinity Float16 = 0x7C00
	// NegativeInfinity is the binary16 -Inf bit pattern.
	NegativeInfinity Float16 = 0xFC00
	// NaN is a canonical binary16 quiet NaN.
	NaN Float16 = 0x7E00
	// MaxValue is the largest finite binary16 value, 65504.
	MaxValue Float16 = 0x7BFF
	// SmallestNormal is the smallest positive normal value, 2^-14.
	SmallestNormal Float16 = 0x0400
	// SmallestSubnormal is the smallest positive subnormal value, 2^-24.
	SmallestSubnormal Float16 = 0x0001
	// One is the binary16 encoding of 1.0.
	One Float16 = 0x3C00
	// Zero is positive zero.
	Zero Float16 = 0x0000
)

// FromFloat32 converts a float32 to binary16 using round-to-nearest-even,
// the rounding mode used by CUDA's __float2half_rn and by tensor-core
// stores. Overflow produces infinity; underflow produces (possibly
// subnormal) small values or zero.
func FromFloat32(f float32) Float16 {
	bits := math.Float32bits(f)
	sign := uint16((bits >> 16) & 0x8000)
	exp := int32((bits>>23)&0xFF) - 127
	mant := bits & 0x7FFFFF

	switch {
	case exp == 128: // Inf or NaN
		if mant != 0 {
			// Preserve NaN-ness; set a quiet-bit mantissa.
			return Float16(sign | 0x7E00)
		}
		return Float16(sign | 0x7C00)
	case exp > 15: // overflow -> Inf
		return Float16(sign | 0x7C00)
	case exp >= -14: // normal range
		// 10-bit mantissa; round to nearest even on the 13 dropped bits.
		m := mant >> 13
		round := mant & 0x1FFF
		if round > 0x1000 || (round == 0x1000 && m&1 == 1) {
			m++
			if m == 0x400 { // mantissa overflow -> bump exponent
				m = 0
				exp++
				if exp > 15 {
					return Float16(sign | 0x7C00)
				}
			}
		}
		return Float16(sign | uint16(exp+15)<<10 | uint16(m))
	case exp >= -24: // subnormal range
		// Shift the implicit leading 1 into the mantissa.
		mant |= 0x800000
		shift := uint32(-exp - 14 + 13) // 13 base bits + denormalization
		m := mant >> shift
		// Round to nearest even on the dropped bits.
		dropped := mant & ((1 << shift) - 1)
		half := uint32(1) << (shift - 1)
		if dropped > half || (dropped == half && m&1 == 1) {
			m++
			// A subnormal rounding up to 0x400 becomes the smallest
			// normal; the encoding below handles it transparently
			// because 0x400 sets the exponent field to 1.
		}
		return Float16(sign | uint16(m))
	default: // underflow to zero
		return Float16(sign)
	}
}

// ToFloat32 converts a binary16 value to float32 exactly (binary16 is a
// subset of binary32, so this conversion is lossless).
func ToFloat32(h Float16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1F
	mant := uint32(h & 0x3FF)

	switch exp {
	case 0:
		if mant == 0 { // signed zero
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize into binary32.
		e := int32(-14)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3FF
		return math.Float32frombits(sign | uint32(e+127)<<23 | mant<<13)
	case 0x1F:
		if mant == 0 { // infinity
			return math.Float32frombits(sign | 0x7F800000)
		}
		return math.Float32frombits(sign | 0x7F800000 | mant<<13 | 0x400000)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}

// ToFloat64 converts a binary16 value to float64 exactly.
func ToFloat64(h Float16) float64 { return float64(ToFloat32(h)) }

// IsNaN reports whether h encodes a NaN.
func IsNaN(h Float16) bool { return h&0x7C00 == 0x7C00 && h&0x3FF != 0 }

// IsInf reports whether h is an infinity. sign > 0 restricts to +Inf,
// sign < 0 to -Inf, and sign == 0 matches either.
func IsInf(h Float16, sign int) bool {
	if h&0x7FFF != 0x7C00 {
		return false
	}
	neg := h&0x8000 != 0
	return sign == 0 || (sign > 0 && !neg) || (sign < 0 && neg)
}

// IsFinite reports whether h is neither infinite nor NaN.
func IsFinite(h Float16) bool { return h&0x7C00 != 0x7C00 }

// Abs returns h with the sign bit cleared.
func Abs(h Float16) Float16 { return h &^ 0x8000 }

// Float32 bit patterns of the magnitudes where Round changes regime.
const (
	signBit          = 0x80000000
	bitsSubnormalMin = 0x33800000 // 2^-24, the smallest binary16 subnormal
	bitsNormalMin    = 0x38800000 // 2^-14, the smallest binary16 normal
	bitsOverflow     = 0x477FF000 // 65520, the first magnitude that rounds to Inf
)

// Round returns the float32 nearest to f that binary16 can hold: the
// store-to-half/load-from-half round trip ToFloat32(FromFloat32(f)),
// bit for bit, without building the half in between.
//
// The rounding is this package's, not IEEE 754's: like FromFloat32 it
// flushes every |f| < 2^-24 to a signed zero, where IEEE
// round-to-nearest would send (2^-25, 2^-24) up to the smallest
// subnormal.
func Round(f float32) float32 {
	bits := math.Float32bits(f)
	if b, ok := roundCommon(bits); ok {
		return math.Float32frombits(b)
	}
	if abs := bits &^ signBit; abs < bitsNormalMin {
		// A subnormal half is a multiple of 2^-24, which is the
		// spacing of float32 in [0.5, 1): adding 0.5 rounds to nearest
		// even on exactly that grid and subtracting it is exact.
		r := (math.Float32frombits(abs) + 0.5) - 0.5
		return math.Float32frombits(math.Float32bits(r) | bits&signBit)
	}
	return ToFloat32(FromFloat32(f)) // overflow, Inf, NaN
}

// roundCommon is Round, on float32 bit patterns, where nearly every
// input lands: the result is a normal half, or a zero (zeros
// themselves, lazily initialized weights included, and everything
// flushed). It reports false elsewhere. Small enough to inline into a
// loop, and working on bits keeps the value in integer registers. The
// two outcomes are selected by a mask rather than a branch: after a
// ReLU, which of the two an element takes is a coin flip no branch
// predictor learns.
func roundCommon(bits uint32) (uint32, bool) {
	abs := bits &^ signBit
	normal := belowMask(abs-bitsNormalMin, bitsOverflow-bitsNormalMin)
	// Round to nearest even on the 13 dropped mantissa bits. A mantissa
	// carry rolls into the exponent by itself and cannot reach Inf
	// below 65520.
	r := (bits + 0xFFF + bits>>13&1) &^ 0x1FFF
	return r&normal | bits&signBit&^normal, normal|belowMask(abs, bitsSubnormalMin) != 0
}

// Quantize rounds every element of src through binary16 in place,
// emulating a store-to-half/load-from-half round trip. It is Round,
// looped, with Round's common case spelled out because Round as a
// whole is too large to inline.
func Quantize(src []float32) {
	for i, f := range src {
		if b, ok := roundCommon(math.Float32bits(f)); ok {
			src[i] = math.Float32frombits(b)
		} else {
			src[i] = Round(f)
		}
	}
}

// belowMask is all ones when x < y and zero otherwise: the top bit of
// the 64-bit difference is set exactly when the subtraction borrows.
func belowMask(x, y uint32) uint32 {
	return uint32(int64(uint64(x)-uint64(y)) >> 63)
}

// Ulp returns the distance between h and the next representable value
// away from zero, as a float64. Useful for tolerance computation in
// numeric tests.
func Ulp(h Float16) float64 {
	if !IsFinite(h) {
		return math.Inf(1)
	}
	a := Abs(h)
	next := a + 1
	if next&0x7C00 == 0x7C00 { // stepped into Inf
		return ToFloat64(MaxValue) - ToFloat64(a-1)
	}
	return ToFloat64(next) - ToFloat64(a)
}
