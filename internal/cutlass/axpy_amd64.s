#include "textflag.h"

// One vector of axpy4: C = (((C + a0*b0) + a1*b1) + a2*b2) + a3*b3 at
// byte offset AX, with T0-T3 as scratch. MULPS and ADDPS round each
// product and each sum to float32; there is no fused multiply-add.
#define STEP4(OFF, C, T0, T1, T2, T3) \
	MOVUPS OFF(DI)(AX*1), C   \
	MOVUPS OFF(R8)(AX*1), T0  \
	MOVUPS OFF(R9)(AX*1), T1  \
	MOVUPS OFF(R10)(AX*1), T2 \
	MOVUPS OFF(R11)(AX*1), T3 \
	MULPS  X0, T0             \
	MULPS  X1, T1             \
	MULPS  X2, T2             \
	MULPS  X3, T3             \
	ADDPS  T0, C              \
	ADDPS  T1, C              \
	ADDPS  T2, C              \
	ADDPS  T3, C              \
	MOVUPS C, OFF(DI)(AX*1)

// func axpy4SSE(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)
TEXT ·axpy4SSE(SB), NOSPLIT, $0-136
	MOVQ   c_base+0(FP), DI
	MOVQ   c_len+8(FP), CX
	MOVQ   b0_base+24(FP), R8
	MOVQ   b1_base+48(FP), R9
	MOVQ   b2_base+72(FP), R10
	MOVQ   b3_base+96(FP), R11
	MOVSS  a0+120(FP), X0
	MOVSS  a1+124(FP), X1
	MOVSS  a2+128(FP), X2
	MOVSS  a3+132(FP), X3
	SHUFPS $0, X0, X0
	SHUFPS $0, X1, X1
	SHUFPS $0, X2, X2
	SHUFPS $0, X3, X3
	XORQ   AX, AX
	SHRQ   $2, CX              // vectors of four columns
	SUBQ   $2, CX
	JLT    last4

pair4:
	STEP4(0, X4, X5, X6, X7, X8)
	STEP4(16, X9, X10, X11, X12, X13)
	ADDQ   $32, AX
	SUBQ   $2, CX
	JGE    pair4

last4:
	ADDQ   $2, CX
	JEQ    done4
	STEP4(0, X4, X5, X6, X7, X8)

done4:
	RET

#define STEP1(OFF, C, T0) \
	MOVUPS OFF(DI)(AX*1), C  \
	MOVUPS OFF(R8)(AX*1), T0 \
	MULPS  X0, T0            \
	ADDPS  T0, C             \
	MOVUPS C, OFF(DI)(AX*1)

// func axpy1SSE(c, b []float32, a float32)
TEXT ·axpy1SSE(SB), NOSPLIT, $0-52
	MOVQ   c_base+0(FP), DI
	MOVQ   c_len+8(FP), CX
	MOVQ   b_base+24(FP), R8
	MOVSS  a+48(FP), X0
	SHUFPS $0, X0, X0
	XORQ   AX, AX
	SHRQ   $2, CX
	SUBQ   $2, CX
	JLT    last1

pair1:
	STEP1(0, X4, X5)
	STEP1(16, X6, X7)
	ADDQ   $32, AX
	SUBQ   $2, CX
	JGE    pair1

last1:
	ADDQ   $2, CX
	JEQ    done1
	STEP1(0, X4, X5)

done1:
	RET
