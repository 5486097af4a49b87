package persistent

import (
	"strings"
	"testing"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// repvggPair builds the Table 2 pattern: a 3x3 conv followed by a 1x1
// conv with matched channels.
func repvggPair(n, h, w, ic, oc, stride int) []ConvLayer {
	relu := cutlass.BiasActivation(cutlass.ActReLU)
	s0 := cutlass.Conv3x3(n, h, w, ic, oc, stride, 1)
	s1 := cutlass.Conv1x1(n, s0.OutH(), s0.OutW(), oc, oc)
	cfg := b2bConfig(tbn(oc), tbn(oc))
	return []ConvLayer{
		{Shape: s0, Config: cfg, Epilogue: relu},
		{Shape: s1, Config: cfg, Epilogue: relu},
	}
}

func TestFusedConvValid(t *testing.T) {
	d := gpu.T4()
	f, err := NewFusedConv(repvggPair(32, 56, 56, 48, 48, 1), RFResident, d)
	if err != nil {
		t.Fatalf("valid conv fusion rejected: %v", err)
	}
	if !strings.Contains(f.Name(), "b2b_conv2d") {
		t.Errorf("Name = %q", f.Name())
	}
}

func TestConvResidenceRules(t *testing.T) {
	d := gpu.T4()

	// Second conv with a 3x3 filter breaks residence.
	layers := repvggPair(32, 56, 56, 48, 48, 1)
	layers[1].Shape.KH, layers[1].Shape.KW = 3, 3
	layers[1].Shape.PadH, layers[1].Shape.PadW = 1, 1
	if _, err := NewFusedConv(layers, RFResident, d); err == nil ||
		!strings.Contains(err.Error(), "1x1") {
		t.Errorf("expected 1x1 constraint error, got %v", err)
	}

	// Second conv with stride 2 breaks residence.
	layers = repvggPair(32, 56, 56, 48, 48, 1)
	layers[1].Shape.StrideH, layers[1].Shape.StrideW = 2, 2
	if _, err := NewFusedConv(layers, RFResident, d); err == nil {
		t.Error("stride-2 trailing conv accepted")
	}

	// Channel mismatch between layers.
	layers = repvggPair(32, 56, 56, 48, 48, 1)
	layers[1].Shape.IC = 64
	layers[1].Shape.OC = 64
	layers[1].Config = b2bConfig(64, 64)
	if _, err := NewFusedConv(layers, RFResident, d); err == nil ||
		!strings.Contains(err.Error(), "IC") {
		t.Errorf("expected channel chaining error, got %v", err)
	}

	// ThreadBlock_N below OC breaks threadblock residence.
	layers = repvggPair(32, 56, 56, 48, 48, 1)
	layers[0].Config.TB.N = 32
	layers[0].Config.Warp.N = 32
	if _, err := NewFusedConv(layers, SMEMResident, d); err == nil ||
		!strings.Contains(err.Error(), "threadblock residence") {
		t.Errorf("expected residence error, got %v", err)
	}
}

func TestFusedConvNumerics(t *testing.T) {
	d := gpu.T4()
	layers := repvggPair(1, 8, 8, 8, 16, 1)
	f, err := NewFusedConv(layers, RFResident, d)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNHWC, 1, 8, 8, 8)
	x.FillRandom(1, 0.5)
	w0 := tensor.New(tensor.FP16, 16, 3, 3, 8)
	w0.FillRandom(2, 0.2)
	w1 := tensor.New(tensor.FP16, 16, 1, 1, 16)
	w1.FillRandom(3, 0.2)
	b0 := tensor.New(tensor.FP16, 16)
	b0.FillRandom(4, 0.5)
	b1 := tensor.New(tensor.FP16, 16)
	b1.FillRandom(5, 0.5)

	fused := f.RunInto(nil, x, []*tensor.Tensor{w0, w1}, []*tensor.Tensor{b0, b1})

	d0 := cutlass.ReferenceConv2D(layers[0].Shape, x, w0, b0, layers[0].Epilogue)
	d1 := cutlass.ReferenceConv2D(layers[1].Shape, d0, w1, b1, layers[1].Epilogue)
	if !tensor.AllClose(fused, d1, 1e-2, 1e-3) {
		t.Errorf("fused conv deviates from unfused composition: %g", tensor.MaxAbsDiff(fused, d1))
	}
}

func TestFusedConvFasterThanUnfused(t *testing.T) {
	d := gpu.T4()
	// Table 2 rows (channels 48 and 64, the small-channel regime the
	// paper targets).
	cases := []struct {
		n, h, w, ic, oc, stride int
	}{
		{32, 224, 224, 3, 48, 2},
		{32, 112, 112, 48, 48, 2},
		{32, 56, 56, 48, 48, 1},
		{32, 224, 224, 3, 64, 2},
		{32, 112, 112, 64, 64, 2},
		{32, 56, 56, 64, 64, 1},
	}
	for _, c := range cases {
		layers := repvggPair(c.n, c.h, c.w, c.ic, c.oc, c.stride)
		// IC=3 layers need narrower alignment.
		if c.ic%8 != 0 {
			layers[0].Config.AlignA = 1
			layers[0].Config.AlignB = 1
		}
		f, err := ChooseConvResidence(layers, d)
		if err != nil {
			t.Fatalf("%dx%d ic%d oc%d: %v", c.h, c.w, c.ic, c.oc, err)
		}
		ratio := UnfusedConvTime(d, layers) / f.Time(d)
		if ratio < 1.02 {
			t.Errorf("%dx%d ic%d oc%d s%d: conv fusion speedup %.2fx, want > 1.02x",
				c.h, c.w, c.ic, c.oc, c.stride, ratio)
		}
		if ratio > 3 {
			t.Errorf("%dx%d ic%d oc%d s%d: conv fusion speedup %.2fx implausibly high",
				c.h, c.w, c.ic, c.oc, c.stride, ratio)
		}
	}
}

func TestFusedConvDescSingleLaunch(t *testing.T) {
	d := gpu.T4()
	layers := repvggPair(32, 56, 56, 64, 64, 1)
	f, err := ChooseConvResidence(layers, d)
	if err != nil {
		t.Fatal(err)
	}
	desc := f.Desc(d)
	m, _, _ := layers[0].Shape.ImplicitGemm()
	if desc.GridBlocks != (m+f.Layers[0].Config.TB.M-1)/f.Layers[0].Config.TB.M {
		t.Errorf("grid %d not a single tile column over M=%d", desc.GridBlocks, m)
	}
	// Final store only: M x OC of the last layer.
	wantStore := float64(m * 64 * 2)
	if desc.GlobalStoreB != wantStore {
		t.Errorf("store %g, want %g", desc.GlobalStoreB, wantStore)
	}
}
