package cutlass

import (
	"math"
	"math/rand"
	"testing"
)

// The vector routines agree bit for bit with their Go bodies at every
// length around the vector width and the unroll, at every element
// alignment of each operand, on finite and non-finite values, and write
// nothing outside c.
func TestAxpyMatchesGoBody(t *testing.T) {
	const maxLen, pad = 67, 4
	rng := rand.New(rand.NewSource(20))
	fill := func() []float32 {
		s := make([]float32, maxLen+2*pad+3)
		for i := range s {
			s[i] = rng.Float32()*4 - 2
		}
		return s
	}
	var src [4][]float32
	for i := range src {
		src[i] = fill()
	}
	// One kind of non-finite value per column, so no sum sees two NaNs
	// of different payloads (which of them survives is the adder's
	// operand order, not arithmetic).
	for j := 0; j < len(src[0]); j += 17 {
		src[0][j] = float32(math.Inf(1))
		src[2][(j+5)%len(src[2])] = float32(math.NaN())
		src[3][(j+11)%len(src[3])] = float32(math.Copysign(0, -1))
		src[1][(j+13)%len(src[1])] = math.SmallestNonzeroFloat32
	}
	cinit := fill()
	a := [4]float32{1.25, -0.75, 3, -1e-3}
	same := func(what string, got, want []float32) {
		t.Helper()
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: element %d is %g (%#x), want %g (%#x)", what, i,
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
	for n := 0; n <= maxLen; n++ {
		for oc := 0; oc < 4; oc++ {
			for ob := 0; ob < 4; ob++ {
				var b [4][]float32
				for i := range b {
					o := pad + (ob+i)%4
					b[i] = src[i][o : o+n]
				}
				got4, want4 := append([]float32(nil), cinit...), append([]float32(nil), cinit...)
				lo, hi := pad+oc, pad+oc+n
				axpy4(got4[lo:hi], b[0], b[1], b[2], b[3], a[0], a[1], a[2], a[3])
				axpy4Go(want4[lo:hi], b[0], b[1], b[2], b[3], a[0], a[1], a[2], a[3])
				same("axpy4", got4, want4)
				got1, want1 := append([]float32(nil), cinit...), append([]float32(nil), cinit...)
				axpy1(got1[lo:hi], b[0], a[1])
				axpy1Go(want1[lo:hi], b[0], a[1])
				same("axpy1", got1, want1)
			}
		}
	}
}
