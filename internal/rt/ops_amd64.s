#include "textflag.h"

// func maxRowAVX2(best, x *float32, n int)
TEXT ·maxRowAVX2(SB), NOSPLIT, $0-24
	MOVQ best+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

loop:
	VMOVUPS (SI)(AX*4), Y0
	VMAXPS  (DI)(AX*4), Y0, Y0  // x > best ? x : best
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET
