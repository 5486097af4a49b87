package cutlass

// axpy4 is axpy4Go with the first len(c)&^3 columns done four to a
// vector. SSE is the amd64 baseline (GOAMD64=v1), so nothing is probed
// or dispatched; AVX measured 1.2x more on one core and nothing on two,
// where the kernel is bound by streaming B.
func axpy4(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	b0, b1, b2, b3 = b0[:len(c)], b1[:len(c)], b2[:len(c)], b3[:len(c)]
	axpy4SSE(c, b0, b1, b2, b3, a0, a1, a2, a3)
	if n := len(c) &^ 3; n < len(c) {
		axpy4Go(c[n:], b0[n:], b1[n:], b2[n:], b3[n:], a0, a1, a2, a3)
	}
}

// axpy1 is axpy1Go with the first len(c)&^3 columns done four to a vector.
func axpy1(c, b []float32, a float32) {
	b = b[:len(c)]
	axpy1SSE(c, b, a)
	if n := len(c) &^ 3; n < len(c) {
		axpy1Go(c[n:], b[n:], a)
	}
}

// axpy4SSE does the first len(c)&^3 columns of axpy4 with MULPS and
// ADDPS, the accumulator as the add's first source; loads and stores
// are unaligned. Every b must hold at least len(c) elements.
//
//go:noescape
func axpy4SSE(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)

// axpy1SSE is axpy4SSE for one term.
//
//go:noescape
func axpy1SSE(c, b []float32, a float32)
