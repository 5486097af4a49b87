package cutlass

// haveAVX2 selects microKernelAVX2 for both kernels where the processor
// has AVX2 and the operating system saves YMM state, and microKernelGo
// elsewhere. The check runs once, at package initialization: AVX2 is
// not in the amd64 baseline (GOAMD64=v1), so it cannot be assumed. With
// its operands in L1, on one core of an Intel Xeon (two-core VM), the
// AVX2 body does 18-25 GMAC/s.
var haveAVX2 = hasAVX2()

// microKernel runs the selected body. A direct call, not a function
// value, keeps the accumulator rows the tile passes on its stack.
func microKernel(c *[4]*[panelCols]float32, x *[4][]float32, b []float32) {
	if haveAVX2 {
		microKernelAVX2(c, x, b)
		return
	}
	microKernelGo(c, x, b)
}

// hasAVX2 reports the CPUID AVX and AVX2 bits, and that the OS has
// enabled XMM and YMM state saving (OSXSAVE, then XGETBV's XCR0).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// microKernelAVX2 is microKernelGo with each lane's 16 accumulators in
// two YMM registers: per tap one 64-byte weight row load, four
// broadcasts, eight VMULPS and eight VADDPS, no fused multiply-add.
// Every x[l] must hold at least len(b)/panelCols elements.
//
//go:noescape
func microKernelAVX2(c *[4]*[panelCols]float32, x *[4][]float32, b []float32)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
