//go:build !amd64

package cutlass

// haveAVX2 is never set here: without an assembly routine the Go body
// is the kernel. The variable exists so that tests forcing the Go body
// build on every architecture.
var haveAVX2 = false

func microKernel(c *[4]*[panelCols]float32, x *[4][]float32, b []float32) {
	microKernelGo(c, x, b)
}
