package cutlass

import "bolt/internal/cpu"

// haveAVX2 selects microKernelAVX2 for both kernels where the processor
// has AVX2 (cpu.AVX2, read once at initialization), and microKernelGo
// elsewhere.
var haveAVX2 = cpu.AVX2

// microKernel runs the selected body. A direct call, not a function
// value, keeps the accumulator rows the tile passes on its stack.
func microKernel(c *[4]*[panelCols]float32, x *[4][]float32, b []float32) {
	if haveAVX2 {
		microKernelAVX2(c, x, b)
		return
	}
	microKernelGo(c, x, b)
}

// microKernelAVX2 is microKernelGo with each lane's 16 accumulators in
// two YMM registers: per tap one 64-byte weight row load, four
// broadcasts, eight VMULPS and eight VADDPS, no fused multiply-add.
// Every x[l] must hold at least len(b)/panelCols elements.
//
//go:noescape
func microKernelAVX2(c *[4]*[panelCols]float32, x *[4][]float32, b []float32)
