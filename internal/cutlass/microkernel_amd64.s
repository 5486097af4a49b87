#include "textflag.h"

// One lane of a tap: ACC0:ACC1 += broadcast(x[l][t]) * (Y8:Y9), the
// weight row, with T0-T2 as scratch. VMULPS and VADDPS round each
// product and each sum to float32; the accumulator is the add's first
// source.
#define LANE(X, ACC0, ACC1, T0, T1, T2) \
	VBROADCASTSS (X)(DX*4), T0 \
	VMULPS       Y8, T0, T1    \
	VMULPS       Y9, T0, T2    \
	VADDPS       T1, ACC0, ACC0 \
	VADDPS       T2, ACC1, ACC1

// func microKernelAVX2(c *[4]*[16]float32, x *[4][]float32, b []float32)
TEXT ·microKernelAVX2(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), AX
	MOVQ x+8(FP), BX
	MOVQ b_base+16(FP), SI
	MOVQ b_len+24(FP), CX
	SHRQ $4, CX                 // taps: rows of 16 floats

	// Lane l's accumulators: Y(2l), Y(2l+1).
	MOVQ    0(AX), DI
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	MOVQ    8(AX), DI
	VMOVUPS 0(DI), Y2
	VMOVUPS 32(DI), Y3
	MOVQ    16(AX), DI
	VMOVUPS 0(DI), Y4
	VMOVUPS 32(DI), Y5
	MOVQ    24(AX), DI
	VMOVUPS 0(DI), Y6
	VMOVUPS 32(DI), Y7

	MOVQ  0(BX), R8             // x[0].base; a slice header is 24 bytes
	MOVQ  24(BX), R9
	MOVQ  48(BX), R10
	MOVQ  72(BX), R11
	XORQ  DX, DX                // t
	TESTQ CX, CX
	JEQ   store

tap:
	VMOVUPS 0(SI), Y8
	VMOVUPS 32(SI), Y9
	LANE(R8, Y0, Y1, Y10, Y11, Y12)
	LANE(R9, Y2, Y3, Y13, Y14, Y15)
	LANE(R10, Y4, Y5, Y10, Y11, Y12)
	LANE(R11, Y6, Y7, Y13, Y14, Y15)
	ADDQ $64, SI
	INCQ DX
	CMPQ DX, CX
	JNE  tap

store:
	MOVQ    0(AX), DI
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	MOVQ    8(AX), DI
	VMOVUPS Y2, 0(DI)
	VMOVUPS Y3, 32(DI)
	MOVQ    16(AX), DI
	VMOVUPS Y4, 0(DI)
	VMOVUPS Y5, 32(DI)
	MOVQ    24(AX), DI
	VMOVUPS Y6, 0(DI)
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32): XCR0, the state components the OS
// saves.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
