package cutlass

import (
	"bolt/internal/cpu"
	"bolt/internal/tensor"
)

// haveF16C selects storeRowF16C for storeRow's common epilogues where
// the processor has AVX2 and F16C (read once at initialization).
var haveF16C = cpu.AVX2 && cpu.F16C

// storeRowSIMD runs storeRowF16C over the row's longest prefix of whole
// 8-lane groups when the epilogue is one the pass covers (Identity or
// ReLU, FP16 or FP32 out), and returns the prefix's length, 0 where it
// did nothing. dst and src (when not nil) are as long as acc.
func (e *Epilogue) storeRowSIMD(dst, acc, src []float32) int {
	n := len(acc) &^ 7
	if !haveF16C || n == 0 || e.Act > ActReLU || e.OutDType != tensor.FP16 && e.OutDType != tensor.FP32 {
		return 0
	}
	var c *float32
	if src != nil {
		c = &src[0]
	}
	storeRowF16C(&dst[0], &acc[0], c, n, e.Alpha, e.Beta, e.Act == ActReLU, e.OutDType == tensor.FP16)
	return n
}

// storeRowF16C is storeRow over n elements, n a positive multiple of 8,
// eight lanes per step: alpha*acc plus beta*src (beta*0 where src is
// nil) as apply computes it (VMULPS, VMULPS, VADDPS, no fused
// multiply-add; each product takes acc's or src's NaN over alpha's or
// beta's, as the compiled apply does), then with relu the values below zero become +0
// (VCMPPS less-than, VANDNPS), then with half the round to FP16:
// VCVTPS2PH to nearest even and VCVTPH2PS back, with two blends that
// give fp16.Round's bits where it parts from IEEE (a NaN becomes its
// sign with 0x7FC00000, and |v| < 2^-24 a signed zero).
//
//go:noescape
func storeRowF16C(dst, acc, src *float32, n int, alpha, beta float32, relu, half bool)
