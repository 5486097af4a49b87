package fp16

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKnownEncodings(t *testing.T) {
	cases := []struct {
		f    float32
		want Float16
	}{
		{0, 0x0000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7BFF},
		{-65504, 0xFBFF},
		{float32(math.Inf(1)), 0x7C00},
		{float32(math.Inf(-1)), 0xFC00},
		{5.9604645e-08, 0x0001},   // smallest subnormal
		{6.103515625e-05, 0x0400}, // smallest normal
		{0.333251953125, 0x3555},  // nearest half to 1/3
		{1024, 0x6400},
		{-2.5, 0xC100},
	}
	for _, c := range cases {
		if got := FromFloat32(c.f); got != c.want {
			t.Errorf("FromFloat32(%g) = %#04x, want %#04x", c.f, got, c.want)
		}
	}
}

func TestKnownDecodings(t *testing.T) {
	cases := []struct {
		h    Float16
		want float32
	}{
		{0x0000, 0},
		{0x3C00, 1},
		{0xBC00, -1},
		{0x7BFF, 65504},
		{0x0001, 5.9604645e-08},
		{0x03FF, 6.097555e-05}, // largest subnormal
		{0x0400, 6.103515625e-05},
		{0x3555, 0.33325195},
	}
	for _, c := range cases {
		if got := ToFloat32(c.h); got != c.want {
			t.Errorf("ToFloat32(%#04x) = %g, want %g", c.h, got, c.want)
		}
	}
}

func TestOverflowToInfinity(t *testing.T) {
	if got := FromFloat32(65520); got != PositiveInfinity {
		t.Errorf("FromFloat32(65520) = %#04x, want +Inf (first value rounding to Inf)", got)
	}
	if got := FromFloat32(65519.9); got != MaxValue {
		t.Errorf("FromFloat32(65519.9) = %#04x, want MaxValue", got)
	}
	if got := FromFloat32(-1e30); got != NegativeInfinity {
		t.Errorf("FromFloat32(-1e30) = %#04x, want -Inf", got)
	}
}

func TestUnderflowToZero(t *testing.T) {
	if got := FromFloat32(1e-10); got != 0 {
		t.Errorf("FromFloat32(1e-10) = %#04x, want +0", got)
	}
	if got := FromFloat32(-1e-10); got != 0x8000 {
		t.Errorf("FromFloat32(-1e-10) = %#04x, want -0", got)
	}
	// Values exactly halfway to the smallest subnormal round to even (zero).
	if got := FromFloat32(2.9802322e-08); got != 0 {
		t.Errorf("halfway-to-subnormal should round to even zero, got %#04x", got)
	}
}

func TestNaNPropagation(t *testing.T) {
	n := FromFloat32(float32(math.NaN()))
	if !IsNaN(n) {
		t.Fatalf("FromFloat32(NaN) = %#04x is not NaN", n)
	}
	if !math.IsNaN(float64(ToFloat32(n))) {
		t.Errorf("ToFloat32(NaN half) should be NaN")
	}
	if IsNaN(PositiveInfinity) || IsNaN(One) {
		t.Errorf("IsNaN misclassifies Inf or 1.0")
	}
}

func TestIsInf(t *testing.T) {
	if !IsInf(PositiveInfinity, 1) || !IsInf(PositiveInfinity, 0) || IsInf(PositiveInfinity, -1) {
		t.Error("IsInf(+Inf) sign handling wrong")
	}
	if !IsInf(NegativeInfinity, -1) || !IsInf(NegativeInfinity, 0) || IsInf(NegativeInfinity, 1) {
		t.Error("IsInf(-Inf) sign handling wrong")
	}
	if IsInf(NaN, 0) || IsInf(One, 0) {
		t.Error("IsInf misclassifies NaN or finite")
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 2049 is exactly halfway between representable 2048 and 2050;
	// round-to-even picks 2048.
	if got := ToFloat32(FromFloat32(2049)); got != 2048 {
		t.Errorf("2049 should round to even 2048, got %g", got)
	}
	// 2051 is halfway between 2050 and 2052; round-to-even picks 2052.
	if got := ToFloat32(FromFloat32(2051)); got != 2052 {
		t.Errorf("2051 should round to even 2052, got %g", got)
	}
	// 2049.5 is above halfway; rounds up to 2050.
	if got := ToFloat32(FromFloat32(2049.5)); got != 2050 {
		t.Errorf("2049.5 should round up to 2050, got %g", got)
	}
}

func TestSubnormalRounding(t *testing.T) {
	// Largest subnormal + half a subnormal ulp rounds to smallest normal.
	largestSub := ToFloat32(Float16(0x03FF))
	smallestNorm := ToFloat32(SmallestNormal)
	mid := (largestSub + smallestNorm) / 2
	got := FromFloat32(mid)
	if got != SmallestNormal {
		t.Errorf("midpoint %g should round (to even) to smallest normal, got %#04x", mid, got)
	}
}

func TestNegAbs(t *testing.T) {
	if Abs(Float16(0xBC00)) != One || Abs(One) != One {
		t.Error("Abs broken")
	}
}

func TestUlp(t *testing.T) {
	// Near 1.0 the fp16 ulp is 2^-10.
	if got := Ulp(One); got != 1.0/1024 {
		t.Errorf("Ulp(1) = %g, want %g", got, 1.0/1024)
	}
	// Subnormal ulp is 2^-24.
	if got := Ulp(SmallestSubnormal); got != math.Pow(2, -24) {
		t.Errorf("Ulp(subnormal) = %g, want 2^-24", got)
	}
	if !math.IsInf(Ulp(PositiveInfinity), 1) {
		t.Error("Ulp(Inf) should be +Inf")
	}
}

// Property: decoding then encoding any half bit pattern is the identity
// (modulo NaN payload canonicalization).
func TestRoundTripHalfProperty(t *testing.T) {
	f := func(bits uint16) bool {
		h := Float16(bits)
		if IsNaN(h) {
			return IsNaN(FromFloat32(ToFloat32(h)))
		}
		return FromFloat32(ToFloat32(h)) == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// Property: conversion is monotone on finite values.
func TestMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		a := float32(rng.NormFloat64() * 100)
		b := float32(rng.NormFloat64() * 100)
		if a > b {
			a, b = b, a
		}
		ha, hb := FromFloat32(a), FromFloat32(b)
		if ToFloat32(ha) > ToFloat32(hb) {
			t.Fatalf("monotonicity violated: %g->%g but %g->%g", a, ToFloat32(ha), b, ToFloat32(hb))
		}
	}
}

// Property: the rounded value is within half an ulp of the input for
// values within the normal range.
func TestRoundingErrorBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		f := float32(math.Exp(rng.Float64()*20-10)) * float32(1-2*rng.Intn(2))
		h := FromFloat32(f)
		if !IsFinite(h) {
			continue
		}
		err := math.Abs(ToFloat64(h) - float64(f))
		if err > Ulp(h)/2+1e-12 {
			t.Fatalf("rounding error %g exceeds half ulp %g for %g", err, Ulp(h)/2, f)
		}
	}
}

func BenchmarkFromFloat32(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]float32, 4096)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}
	b.ResetTimer()
	var sink Float16
	for i := 0; i < b.N; i++ {
		sink = FromFloat32(vals[i&4095])
	}
	_ = sink
}

func BenchmarkToFloat32(b *testing.B) {
	var sink float32
	for i := 0; i < b.N; i++ {
		sink = ToFloat32(Float16(i & 0x7BFF))
	}
	_ = sink
}
