package persistent

import (
	"strings"
	"testing"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// b2bConfig builds a residence-compatible config: ThreadBlock_N covers
// n, narrow warps in M (as in CUTLASS's b2b examples).
func b2bConfig(n int, warpN int) cutlass.GemmConfig {
	return cutlass.GemmConfig{
		TB:     cutlass.Shape3{M: 64, N: n, K: 32},
		Warp:   cutlass.Shape3{M: 16, N: warpN, K: 32},
		Inst:   cutlass.Shape3{M: 16, N: 8, K: 8},
		Stages: 2, SwizzleLog: 0,
		AlignA: 8, AlignB: 8, AlignC: 8,
		Op: gpu.OpClassTensorOp, DType: tensor.FP16,
	}
}

func twoLayers(n0, k0, n1 int) []GemmLayer {
	relu := cutlass.BiasActivation(cutlass.ActReLU)
	return []GemmLayer{
		{N: n0, K: k0, Config: b2bConfig(tbn(n0), tbn(n0)), Epilogue: relu},
		{N: n1, K: n0, Config: b2bConfig(tbn(n1), tbn(n1)), Epilogue: relu},
	}
}

// tbn rounds n up to a legal tile extent (multiple of instruction N).
func tbn(n int) int {
	r := (n + 7) / 8 * 8
	if r < 8 {
		r = 8
	}
	return r
}

func TestFusedGemmValid(t *testing.T) {
	d := gpu.T4()
	f, err := NewFusedGemm(4096, twoLayers(64, 256, 16), RFResident, d)
	if err != nil {
		t.Fatalf("valid RF-resident fusion rejected: %v", err)
	}
	if !strings.Contains(f.Name(), "b2b_gemm_x2_rf-resident") {
		t.Errorf("Name = %q", f.Name())
	}
}

func TestResidenceViolations(t *testing.T) {
	d := gpu.T4()

	// ThreadBlock_N smaller than GEMM_N breaks threadblock residence.
	layers := twoLayers(64, 256, 16)
	layers[0].Config.TB.N = 32
	layers[0].Config.Warp.N = 32
	if _, err := NewFusedGemm(4096, layers, SMEMResident, d); err == nil ||
		!strings.Contains(err.Error(), "threadblock residence") {
		t.Errorf("expected threadblock residence error, got %v", err)
	}

	// RF residence additionally requires Warp_N == ThreadBlock_N.
	layers = twoLayers(64, 256, 16)
	layers[0].Config.Warp.N = 32
	if _, err := NewFusedGemm(4096, layers, RFResident, d); err == nil ||
		!strings.Contains(err.Error(), "RF residence") {
		t.Errorf("expected RF residence error, got %v", err)
	}
	// ...but SMEM residence accepts narrower warps.
	if _, err := NewFusedGemm(4096, layers, SMEMResident, d); err != nil {
		t.Errorf("smem residence should accept narrow warps: %v", err)
	}

	// K of layer 1 must equal N of layer 0 (D0 feeds A1).
	layers = twoLayers(64, 256, 16)
	layers[1].K = 32
	if _, err := NewFusedGemm(4096, layers, RFResident, d); err == nil ||
		!strings.Contains(err.Error(), "output N") {
		t.Errorf("expected layer chaining error, got %v", err)
	}

	// Mismatched ThreadBlock_M across layers.
	layers = twoLayers(64, 256, 16)
	layers[1].Config.TB.M = 128
	if _, err := NewFusedGemm(4096, layers, RFResident, d); err == nil ||
		!strings.Contains(err.Error(), "ThreadBlock_M") {
		t.Errorf("expected TB_M mismatch error, got %v", err)
	}

	// Fewer than two layers is not a fusion.
	if _, err := NewFusedGemm(4096, twoLayers(64, 256, 16)[:1], RFResident, d); err == nil {
		t.Error("single layer accepted")
	}
}

func TestRFPressureFallsBackToSMEM(t *testing.T) {
	d := gpu.T4()
	// N=256: RF-resident would need Warp_N=256 -> accumulators blow the
	// register budget (the paper's stated RF-resident limitation).
	relu := cutlass.BiasActivation(cutlass.ActReLU)
	layers := []GemmLayer{
		{N: 256, K: 128, Config: b2bConfig(256, 256), Epilogue: relu},
		{N: 256, K: 256, Config: b2bConfig(256, 256), Epilogue: relu},
	}
	if _, err := NewFusedGemm(8192, layers, RFResident, d); err == nil ||
		!strings.Contains(err.Error(), "registers") {
		t.Fatalf("expected register-pressure rejection, got %v", err)
	}
	f, err := ChooseGemmResidence(8192, layers, d)
	if err != nil {
		t.Fatalf("ChooseGemmResidence failed: %v", err)
	}
	if f.Kind != SMEMResident {
		t.Errorf("expected smem fallback, got %v", f.Kind)
	}
}

func TestChoosePrefersRFWhenSmall(t *testing.T) {
	d := gpu.T4()
	f, err := ChooseGemmResidence(16384, twoLayers(64, 256, 16), d)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != RFResident {
		t.Errorf("small-N fusion should pick RF residence, got %v", f.Kind)
	}
}

func TestFusedGemmNumericsMatchUnfused(t *testing.T) {
	d := gpu.T4()
	layers := twoLayers(64, 128, 16)
	f, err := NewFusedGemm(96, layers, RFResident, d)
	if err != nil {
		t.Fatal(err)
	}
	a0 := tensor.New(tensor.FP16, 96, 128)
	a0.FillRandom(1, 0.5)
	w0 := tensor.New(tensor.FP16, 128, 64)
	w0.FillRandom(2, 0.2)
	w1 := tensor.New(tensor.FP16, 64, 16)
	w1.FillRandom(3, 0.2)
	b0 := tensor.New(tensor.FP16, 64)
	b0.FillRandom(4, 0.5)
	b1 := tensor.New(tensor.FP16, 16)
	b1.FillRandom(5, 0.5)

	fused := f.RunInto(nil, a0, []*tensor.Tensor{w0, w1}, []*tensor.Tensor{b0, b1})

	// Unfused reference: two independent reference GEMMs.
	d0 := cutlass.ReferenceGemm(a0, w0, b0, layers[0].Epilogue)
	d1 := cutlass.ReferenceGemm(d0, w1, b1, layers[1].Epilogue)
	if !tensor.AllClose(fused, d1, 1e-2, 1e-3) {
		t.Errorf("fused result deviates from unfused composition: %g", tensor.MaxAbsDiff(fused, d1))
	}
}

var intermediateSink *tensor.Tensor

// A FusedGemm keeps its per-layer kernels, so only its first run packs
// the weights: a later RunInto into a destination allocates nothing
// but the in-chain intermediate, as many objects as tensor.New makes.
func TestFusedGemmSecondRunPacksNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	layers := twoLayers(64, 128, 16)
	f, err := NewFusedGemm(32, layers, RFResident, gpu.T4())
	if err != nil {
		t.Fatal(err)
	}
	a0 := tensor.New(tensor.FP16, 32, 128)
	a0.FillRandom(1, 0.5)
	ws := []*tensor.Tensor{tensor.New(tensor.FP16, 128, 64), tensor.New(tensor.FP16, 64, 16)}
	bs := []*tensor.Tensor{tensor.New(tensor.FP16, 64), tensor.New(tensor.FP16, 16)}
	for i := range ws {
		ws[i].FillRandom(int64(2+i), 0.2)
		bs[i].FillRandom(int64(4+i), 0.5)
	}
	dst := f.RunInto(nil, a0, ws, bs)
	got := testing.AllocsPerRun(20, func() { f.RunInto(dst, a0, ws, bs) })
	want := testing.AllocsPerRun(20, func() { intermediateSink = tensor.New(layers[0].Epilogue.OutDType, 32, 64) })
	if got != want {
		t.Errorf("second run makes %v allocations, want %v: the intermediate's alone", got, want)
	}
}

func TestFusedGemmFasterThanUnfused(t *testing.T) {
	d := gpu.T4()
	// Table 1 style: memory-bound, large M, small N/K.
	cases := []struct{ m, n0, k0, n1 int }{
		{16384, 64, 256, 16},
		{32768, 128, 576, 64},
		{128320, 32, 96, 96},
	}
	for _, c := range cases {
		relu := cutlass.BiasActivation(cutlass.ActReLU)
		layers := []GemmLayer{
			{N: c.n0, K: c.k0, Config: b2bConfig(tbn(c.n0), tbn(c.n0)), Epilogue: relu},
			{N: c.n1, K: c.n0, Config: b2bConfig(tbn(c.n1), tbn(c.n1)), Epilogue: relu},
		}
		f, err := ChooseGemmResidence(c.m, layers, d)
		if err != nil {
			t.Fatalf("(%d,%d,%d)+(%d): %v", c.m, c.n0, c.k0, c.n1, err)
		}
		fused := f.Time(d)
		unfused := UnfusedGemmTime(d, c.m, layers)
		ratio := unfused / fused
		if ratio < 1.05 {
			t.Errorf("(%d,%d,%d)->(%d): fusion speedup %.2fx, want > 1.05x", c.m, c.n0, c.k0, c.n1, ratio)
		}
		if ratio > 3 {
			t.Errorf("(%d,%d,%d)->(%d): fusion speedup %.2fx implausibly high", c.m, c.n0, c.k0, c.n1, ratio)
		}
	}
}

func TestFusedDescTraffic(t *testing.T) {
	d := gpu.T4()
	layers := twoLayers(64, 256, 16)
	f, _ := NewFusedGemm(16384, layers, RFResident, d)
	desc := f.Desc(d)
	// Single launch: one grid, and global traffic must exclude the
	// intermediate: store is only M x N1.
	wantStore := float64(16384 * 16 * 2)
	if desc.GlobalStoreB != wantStore {
		t.Errorf("store bytes %g, want %g (final layer only)", desc.GlobalStoreB, wantStore)
	}
	// Load must not contain M*N0 (the intermediate).
	maxLoad := float64(16384*256+256*64+64*16+64+16) * 2.5
	if desc.GlobalLoadB > maxLoad {
		t.Errorf("load bytes %g too high — intermediate not eliminated?", desc.GlobalLoadB)
	}
	if desc.SMEMTrafficB != 0 {
		t.Error("RF-resident fusion must not stage through shared memory")
	}
	smem := NewMust(t, 16384, retileForResidence(layers, SMEMResident), SMEMResident, d)
	if smem.Desc(d).SMEMTrafficB == 0 {
		t.Error("smem-resident fusion must stage through shared memory")
	}
}

// NewMust wraps NewFusedGemm for tests.
func NewMust(t *testing.T, m int, layers []GemmLayer, kind Residence, d *gpu.Device) *FusedGemm {
	t.Helper()
	f, err := NewFusedGemm(m, layers, kind, d)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestThreeLayerChain(t *testing.T) {
	d := gpu.T4()
	relu := cutlass.BiasActivation(cutlass.ActReLU)
	layers := []GemmLayer{
		{N: 64, K: 96, Config: b2bConfig(64, 64), Epilogue: relu},
		{N: 32, K: 64, Config: b2bConfig(32, 32), Epilogue: relu},
		{N: 16, K: 32, Config: b2bConfig(16, 16), Epilogue: relu},
	}
	f, err := NewFusedGemm(4096, layers, RFResident, d)
	if err != nil {
		t.Fatalf("3-layer chain rejected: %v", err)
	}
	// Functional equivalence for the 3-chain.
	a0 := tensor.New(tensor.FP16, 64, 96)
	a0.FillRandom(10, 0.5)
	ws := []*tensor.Tensor{
		tensor.New(tensor.FP16, 96, 64),
		tensor.New(tensor.FP16, 64, 32),
		tensor.New(tensor.FP16, 32, 16),
	}
	bs := make([]*tensor.Tensor, len(ws))
	for i, w := range ws {
		w.FillRandom(int64(20+i), 0.2)
		bs[i] = tensor.New(tensor.FP16, layers[i].N)
		bs[i].FillRandom(int64(30+i), 0.1)
	}
	got := f.RunInto(nil, a0, ws, bs)
	cur := a0
	for i, l := range layers {
		cur = cutlass.ReferenceGemm(cur, ws[i], bs[i], l.Epilogue)
	}
	if !tensor.AllClose(got, cur, 1e-2, 1e-3) {
		t.Errorf("3-layer fused deviates: %g", tensor.MaxAbsDiff(got, cur))
	}
	// Fusing 3 must beat fusing 2 + one standalone (more launches
	// and intermediate traffic eliminated).
	two, err := NewFusedGemm(4096, layers[:2], RFResident, d)
	if err != nil {
		t.Fatal(err)
	}
	lone := UnfusedGemmTime(d, 4096, layers[2:])
	if f.Time(d) >= two.Time(d)+lone {
		t.Error("3-layer fusion should beat 2-layer fusion + standalone kernel")
	}
}

func TestTinyNWorkloads(t *testing.T) {
	// Table 1's (2464,1,4)+(2464,4,1): N below the instruction shape
	// must still validate via tile padding.
	d := gpu.T4()
	relu := cutlass.BiasActivation(cutlass.ActReLU)
	layers := []GemmLayer{
		{N: 1, K: 4, Config: b2bConfig(8, 8), Epilogue: relu},
		{N: 4, K: 1, Config: b2bConfig(8, 8), Epilogue: relu},
	}
	f, err := ChooseGemmResidence(2464, layers, d)
	if err != nil {
		t.Fatalf("tiny-N fusion rejected: %v", err)
	}
	if UnfusedGemmTime(d, 2464, layers)/f.Time(d) <= 1.0 {
		t.Error("tiny-N fusion should still win (launch latency dominates)")
	}
}

// retileForResidence applies residenceConfig to every layer of a copy.
func retileForResidence(layers []GemmLayer, kind Residence) []GemmLayer {
	out := make([]GemmLayer, len(layers))
	copy(out, layers)
	for i := range out {
		out[i].Config = residenceConfig(out[i].Config, kind)
	}
	return out
}
