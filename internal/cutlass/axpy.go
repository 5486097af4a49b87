package cutlass

// The GEMM's inner steps. axpy4 and axpy1 (axpy_amd64.go, axpy_noasm.go)
// add one or four scaled B row segments to an accumulator row; the lanes
// of a vector are different outputs, so SIMD changes no output's
// arithmetic: each still sees its products in ascending k with one
// float32 round per multiply and one per add. The bodies below are that
// statement in Go, run for the columns past a multiple of four and for
// every column where there is no assembly. The float32 conversions keep
// a compiler that fuses x*y + z (arm64, GOAMD64=v3) from skipping the
// product's round.

// axpy4Go sets c[j] = (((c[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j].
func axpy4Go(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	b0, b1, b2, b3 = b0[:len(c)], b1[:len(c)], b2[:len(c)], b3[:len(c)]
	for j, v := range c {
		v += float32(a0 * b0[j])
		v += float32(a1 * b1[j])
		v += float32(a2 * b2[j])
		c[j] = v + float32(a3*b3[j])
	}
}

// axpy1Go sets c[j] = c[j] + a*b[j].
func axpy1Go(c, b []float32, a float32) {
	b = b[:len(c)]
	for j, v := range c {
		c[j] = v + float32(a*b[j])
	}
}
