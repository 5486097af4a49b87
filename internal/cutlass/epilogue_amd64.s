#include "textflag.h"

// The fix-up's constants, one float32 bit pattern each.
DATA f16cFix<>+0(SB)/4, $0x80000000
DATA f16cFix<>+4(SB)/4, $0x7FFFFFFF
DATA f16cFix<>+8(SB)/4, $0x33800000
DATA f16cFix<>+12(SB)/4, $0x7FC00000
GLOBL f16cFix<>(SB), RODATA|NOPTR, $16

// func storeRowF16C(dst, acc, src *float32, n int, alpha, beta float32, relu, half bool)
TEXT ·storeRowF16C(SB), NOSPLIT, $0-42
	MOVQ    dst+0(FP), DI
	MOVQ    acc+8(FP), SI
	MOVQ    src+16(FP), DX
	MOVQ    n+24(FP), CX
	VBROADCASTSS alpha+32(FP), Y0
	VBROADCASTSS beta+36(FP), Y1
	MOVBLZX relu+40(FP), R8
	MOVBLZX half+41(FP), R9
	VXORPS  Y2, Y2, Y2
	VMULPS  Y2, Y1, Y3          // beta*0, the addend without a source
	VBROADCASTSS f16cFix<>+0(SB), Y10   // sign bit
	VBROADCASTSS f16cFix<>+4(SB), Y11   // magnitude bits
	VBROADCASTSS f16cFix<>+8(SB), Y12   // 2^-24, the smallest half subnormal
	VBROADCASTSS f16cFix<>+12(SB), Y13  // the quiet NaN fp16.Round returns
	XORQ    AX, AX

loop:
	VMOVUPS (SI)(AX*4), Y4
	VMULPS Y0, Y4, Y4           // alpha*acc, acc's NaN first
	VMOVAPS Y3, Y5
	TESTQ  DX, DX
	JEQ    sum
	VMOVUPS (DX)(AX*4), Y5
	VMULPS Y1, Y5, Y5           // beta*src, src's NaN first
sum:
	VADDPS Y5, Y4, Y4
	TESTB  R8, R8
	JEQ    round
	VCMPPS  $1, Y2, Y4, Y5      // v < 0: false for -0 and NaN
	VANDNPS Y4, Y5, Y4
round:
	TESTB  R9, R9
	JEQ    store
	VCVTPS2PH $0, Y4, X6        // to nearest even
	VCVTPH2PS X6, Y6
	VANDPS    Y10, Y4, Y7       // v's sign
	VORPS     Y13, Y7, Y8
	VCMPPS    $3, Y4, Y4, Y9    // unordered: v is NaN
	VBLENDVPS Y9, Y8, Y6, Y6
	VANDPS    Y11, Y4, Y8
	VCMPPS    $1, Y12, Y8, Y9   // |v| < 2^-24
	VBLENDVPS Y9, Y7, Y6, Y4
store:
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET
