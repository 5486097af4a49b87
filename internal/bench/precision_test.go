package bench

import (
	"testing"

	"bolt/internal/gpu"
)

// TestPrecisionGates is the precision experiment's acceptance gate:
// under one Poisson stream, FP16 serves at >= 1.5x FP32 and INT8 beats
// FP16; the FP16 FFN block is two launches (BiasAdd+GELU ride the GEMM
// epilogues); every gated arm serves within its accuracy budget, the
// FP16 divergence is nonzero (the cast is real) and the INT8 arm serves
// INT8; and the impossible-budget arm falls back to FP32.
func TestPrecisionGates(t *testing.T) {
	art := NewQuickSuite(gpu.T4()).runPrecision()
	checkGolden(t, "precision", art)

	if art.FP16VsFP32 < 1.5 {
		t.Errorf("FP16 served throughput %.2fx FP32, want >= 1.5x", art.FP16VsFP32)
	}
	if art.INT8VsFP16 <= 1 {
		t.Errorf("INT8 served throughput %.2fx FP16, want > 1x", art.INT8VsFP16)
	}
	if !art.FallbackDemonstrated {
		t.Error("int8-tight arm did not fall back to FP32")
	}
	if !art.DivergencesWithinGate {
		t.Error("a gated arm served outside its accuracy budget")
	}
	if art.FP16Launches != 2 {
		t.Errorf("FP16 FFN block launches %d kernels, want 2 (GELU must ride the epilogue)", art.FP16Launches)
	}
	rows := map[string]precisionRow{}
	for _, r := range art.Rows {
		rows[r.Arm] = r
	}
	if fp16 := rows["fp16"]; fp16.Divergence <= 0 || fp16.Divergence > fp16.Budget {
		t.Errorf("fp16 divergence %g outside (0, %g]", fp16.Divergence, fp16.Budget)
	}
	if int8 := rows["int8"]; int8.FellBack || int8.Served != "int8" {
		t.Errorf("int8 arm served %s (fell back %v), want int8", int8.Served, int8.FellBack)
	}
}
