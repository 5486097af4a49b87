package cutlass

import (
	"testing"

	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// int8Config builds an IMMA (INT8 tensor core) configuration: the
// mixed-precision path CUTLASS templates expose beyond FP16 (paper
// §2.2 lists B1/INT4/INT8/... support as part of the templated
// design).
func int8Config() GemmConfig {
	return GemmConfig{
		TB:     Shape3{128, 128, 64},
		Warp:   Shape3{64, 64, 64},
		Inst:   Shape3{8, 8, 16}, // Turing IMMA m8n8k16
		Stages: 2, SwizzleLog: 1,
		AlignA: 16, AlignB: 16, AlignC: 16,
		Op: gpu.OpClassTensorOp, DType: tensor.INT8,
	}
}

func TestInt8ConfigValid(t *testing.T) {
	if err := int8Config().Validate(gpu.T4()); err != nil {
		t.Fatalf("IMMA config invalid: %v", err)
	}
}

func TestMaxAlignment(t *testing.T) {
	if MaxAlignment(tensor.FP16) != 8 {
		t.Error("FP16 max alignment is 8 (128-bit)")
	}
	if MaxAlignment(tensor.INT8) != 16 {
		t.Error("INT8 max alignment is 16 (128-bit)")
	}
	if MaxAlignment(tensor.FP32) != 4 {
		t.Error("FP32 max alignment is 4 (128-bit)")
	}
}

func TestInt8DoubleRateOverFP16(t *testing.T) {
	d := gpu.T4()
	i8 := &Gemm{Config: int8Config(), Epilogue: Epilogue{OutDType: tensor.INT8}}
	f16 := &Gemm{Config: stdConfig(), Epilogue: DefaultEpilogue()}
	m, n, k := 4096, 4096, 4096
	ratio := f16.Time(d, m, n, k) / i8.Time(d, m, n, k)
	// T4 INT8 tensor peak is 130 TOPS vs 65 TFLOPS FP16: ~2x on a
	// compute-bound GEMM.
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("INT8/FP16 speedup %.2f, want ~2x", ratio)
	}
}

func TestInt8Functional(t *testing.T) {
	d := gpu.T4()
	cfg := int8Config()
	cfg.TB = Shape3{64, 64, 64}
	cfg.Warp = Shape3{32, 32, 64}
	g, err := NewGemm(cfg, Epilogue{OutDType: tensor.FP32}, d)
	if err != nil {
		t.Fatal(err)
	}
	a := tensor.New(tensor.INT8, 32, 64)
	b := tensor.New(tensor.INT8, 64, 32)
	a.FillRandom(1, 10) // quantizes to integers in [-10, 10]
	b.FillRandom(2, 10)
	got := g.RunInto(nil, a, b, nil)
	want := ReferenceGemm(a, b, nil, Epilogue{OutDType: tensor.FP32})
	if tensor.MaxAbsDiff(got, want) != 0 {
		t.Errorf("INT8 GEMM deviates: %g (integer math must be exact)", tensor.MaxAbsDiff(got, want))
	}
	// Integer inputs stay integers after quantization.
	for _, v := range a.Data() {
		if v != float32(int(v)) {
			t.Fatal("INT8 tensor holds non-integers")
		}
	}
}

func TestInt8UnsupportedOnVolta(t *testing.T) {
	volta := gpu.T4()
	volta.Arch = gpu.SM70
	if err := int8Config().Validate(volta); err == nil {
		t.Error("IMMA on sm_70 should be rejected")
	}
}
