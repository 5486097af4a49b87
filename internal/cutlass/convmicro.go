package cutlass

// The convolution's inner step. convMicro (convmicro_amd64.go,
// convmicro_noasm.go) adds a run of n taps to four output pixels × one
// filter panel of panelCols output channels: for t in [0, n), lane l
// and channel j,
//
//	c[l][j] = c[l][j] + x[l][t]*b[t*panelCols+j]
//
// with one float32 round per multiply and one per add, the accumulator
// the add's first source. The 4 × panelCols accumulators stay in
// registers across the run and one filter row serves all four pixels,
// so a tap costs one filter load and four broadcasts. Lanes are
// different outputs, so no output's arithmetic depends on the body
// that runs it. The rows of c are loaded before the first tap and
// stored after the last, so lanes may share a row, which then holds
// one of their results; the tile points lanes it has no pixel for at
// one junk row.
const panelCols = 16

// convMicroGo is the statement above in Go: the body every
// architecture without an assembly routine runs, and the oracle the
// assembly is tested against. The float32 conversion keeps a compiler
// that fuses x*y + z (arm64, GOAMD64=v3) from skipping the product's
// round. Every x[l] must hold at least len(b)/panelCols elements.
func convMicroGo(c *[4]*[panelCols]float32, x *[4][]float32, b []float32) {
	n := len(b) / panelCols
	acc := [4][panelCols]float32{*c[0], *c[1], *c[2], *c[3]}
	for l := range acc {
		xl := x[l][:n]
		for j := range acc[l] {
			v := acc[l][j]
			for t, xv := range xl {
				v += float32(xv * b[t*panelCols+j])
			}
			acc[l][j] = v
		}
	}
	for l := range acc {
		*c[l] = acc[l]
	}
}
