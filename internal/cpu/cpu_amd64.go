package cpu

// detect reads the CPUID AVX, F16C and AVX2 bits, and that the OS has
// enabled XMM and YMM state saving (OSXSAVE, then XGETBV's XCR0).
func detect() (avx2, f16c bool) {
	const osxsave, avx, f16cBit = 1 << 27, 1 << 28, 1 << 29
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false, false
	}
	const xmmYmm = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false, false
	}
	f16c = ecx&f16cBit != 0
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, f16c
	}
	const avx2Bit = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2Bit != 0, f16c
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
