package persistent

import (
	"fmt"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// ConvLayer is one convolution in a fused chain.
type ConvLayer struct {
	Shape    cutlass.ConvShape
	Config   cutlass.GemmConfig
	Epilogue cutlass.Epilogue
	// FilterScale is the layer kernel's cutlass.Conv2D.FilterScale.
	FilterScale []float32
}

// FusedConv is a validated persistent convolution chain. The first
// layer may be any convolution; every subsequent layer must be a 1×1
// convolution with stride 1 and no padding (paper §3.1.1), so the
// output pixels map one-to-one and threadblock residence holds with
// ThreadBlock_N == output channels.
type FusedConv struct {
	Layers []ConvLayer
	Kind   Residence

	convs []*cutlass.Conv2D // one functional kernel per layer, each keeping its packed filter
}

// NewFusedConv validates residence and resource rules.
func NewFusedConv(layers []ConvLayer, kind Residence, d *gpu.Device) (*FusedConv, error) {
	if len(layers) < 2 {
		return nil, fmt.Errorf("persistent: need at least 2 conv layers, have %d", len(layers))
	}
	tbM := layers[0].Config.TB.M
	for i, l := range layers {
		if err := l.Shape.Validate(); err != nil {
			return nil, fmt.Errorf("persistent: conv layer %d: %w", i, err)
		}
		if err := l.Config.Validate(d); err != nil {
			return nil, fmt.Errorf("persistent: conv layer %d: %w", i, err)
		}
		if l.Config.TB.M != tbM {
			return nil, fmt.Errorf("persistent: conv layer %d ThreadBlock_M %d != layer 0's %d", i, l.Config.TB.M, tbM)
		}
		// Residence: ThreadBlock_N must cover the layer's output channels.
		if l.Config.TB.N < l.Shape.OC {
			return nil, fmt.Errorf("persistent: conv layer %d violates threadblock residence: ThreadBlock_N %d < OC %d",
				i, l.Config.TB.N, l.Shape.OC)
		}
		if kind == RFResident && l.Config.Warp.N != l.Config.TB.N {
			return nil, fmt.Errorf("persistent: conv layer %d violates RF residence: Warp_N %d != ThreadBlock_N %d",
				i, l.Config.Warp.N, l.Config.TB.N)
		}
		if i > 0 {
			prev := layers[i-1].Shape
			if l.Shape.KH != 1 || l.Shape.KW != 1 || l.Shape.StrideH != 1 || l.Shape.StrideW != 1 ||
				l.Shape.PadH != 0 || l.Shape.PadW != 0 {
				return nil, fmt.Errorf("persistent: conv layer %d must be 1x1/stride 1/no padding, got k%dx%d s%d p%d",
					i, l.Shape.KH, l.Shape.KW, l.Shape.StrideH, l.Shape.PadH)
			}
			if l.Shape.IC != prev.OC {
				return nil, fmt.Errorf("persistent: conv layer %d IC %d != layer %d OC %d", i, l.Shape.IC, i-1, prev.OC)
			}
			if l.Shape.N != prev.N || l.Shape.H != prev.OutH() || l.Shape.W != prev.OutW() {
				return nil, fmt.Errorf("persistent: conv layer %d input %dx%dx%d != layer %d output %dx%dx%d",
					i, l.Shape.N, l.Shape.H, l.Shape.W, i-1, prev.N, prev.OutH(), prev.OutW())
			}
		}
	}
	f := &FusedConv{Layers: layers, Kind: kind}
	gemm := f.asGemm()
	if kind == RFResident && gemm.regsPerThread() > d.MaxRegsThread {
		return nil, fmt.Errorf("persistent: RF-resident conv fusion needs %d registers/thread, cap is %d",
			gemm.regsPerThread(), d.MaxRegsThread)
	}
	if gemm.sharedMemBytes() > d.SharedMemBlock {
		return nil, fmt.Errorf("persistent: fused conv needs %d B shared memory, cap is %d",
			gemm.sharedMemBytes(), d.SharedMemBlock)
	}
	f.convs = make([]*cutlass.Conv2D, len(layers))
	for i, l := range layers {
		f.convs[i] = &cutlass.Conv2D{Shape: l.Shape, Config: l.Config, Epilogue: l.Epilogue, FilterScale: l.FilterScale}
	}
	return f, nil
}

// asGemm maps the chain onto the implicit-GEMM fused-GEMM machinery for
// resource accounting (M = N·OH·OW of the first layer's output, which
// all layers share by the 1×1 constraint).
func (f *FusedConv) asGemm() *FusedGemm {
	layers := make([]GemmLayer, len(f.Layers))
	for i, l := range f.Layers {
		_, n, k := l.Shape.ImplicitGemm()
		layers[i] = GemmLayer{N: n, K: k, Config: l.Config, Epilogue: l.Epilogue}
	}
	m, _, _ := f.Layers[0].Shape.ImplicitGemm()
	return &FusedGemm{M: m, Layers: layers, Kind: f.Kind}
}

// Name returns the kernel name.
func (f *FusedConv) Name() string {
	return fmt.Sprintf("cutlass_b2b_conv2d_fprop_x%d_%s", len(f.Layers), f.Kind)
}

// RunInto executes the chain functionally (see runChain): weights[i]
// is layer i's OHWI filter, and biases[i] may be nil.
func (f *FusedConv) RunInto(dst *tensor.Tensor, x *tensor.Tensor, weights, biases []*tensor.Tensor) *tensor.Tensor {
	return runChain(f.convs, len(f.Layers), dst, x, weights, biases)
}

// Residence returns f.Kind.
func (f *FusedConv) Residence() Residence { return f.Kind }

// Desc lowers the fused chain to a single kernel descriptor. The first
// layer contributes its true NHWC activation footprint; weights of all
// layers stream in; only the final activation is stored.
func (f *FusedConv) Desc(d *gpu.Device) gpu.KernelDesc {
	g := f.asGemm()
	desc := g.Desc(d)
	desc.Name = f.Name()
	// Replace the A0 term (implicit-GEMM m*k overstates conv input
	// traffic) with the true activation footprint.
	first := f.Layers[0]
	m, _, k0 := first.Shape.ImplicitGemm()
	esize := first.Config.DType.Size()
	implicitA := float64(m) * float64(k0) * float64(esize)
	actual := float64(first.Shape.N*first.Shape.H*first.Shape.W*first.Shape.IC) * float64(esize)
	desc.GlobalLoadB += actual - implicitA
	// Implicit-GEMM main loop overhead, as in cutlass.Conv2D.Desc.
	desc.IssueEff *= 0.72
	desc.RegsPerThread += 16
	return desc
}

// Time prices the fused conv chain.
func (f *FusedConv) Time(d *gpu.Device) float64 { return d.KernelTime(f.Desc(d)) }

// UnfusedConvTime prices the chain as separate per-layer kernels with
// per-layer epilogue fusion (the paper's baseline in Table 2).
func UnfusedConvTime(d *gpu.Device, layers []ConvLayer) float64 {
	total := 0.0
	for _, l := range layers {
		conv := &cutlass.Conv2D{Shape: l.Shape, Config: unfusedConfig(l.Config), Epilogue: l.Epilogue}
		total += conv.Time(d)
	}
	return total
}

// ChooseGemmResidence validates RF-resident fusion first (faster when
// it fits — no SMEM round trip) and falls back to shared-memory
// residence, mirroring Bolt's automatic selection. It returns the
// fused kernel with the lower modeled time among valid options.
func ChooseGemmResidence(m int, layers []GemmLayer, d *gpu.Device) (*FusedGemm, error) {
	return chooseResidence(layers, func(l *GemmLayer) *cutlass.GemmConfig { return &l.Config },
		func(ls []GemmLayer, kind Residence) (*FusedGemm, error) { return NewFusedGemm(m, ls, kind, d) }, d)
}

// ChooseConvResidence is ChooseGemmResidence for a convolution chain.
func ChooseConvResidence(layers []ConvLayer, d *gpu.Device) (*FusedConv, error) {
	return chooseResidence(layers, func(l *ConvLayer) *cutlass.GemmConfig { return &l.Config },
		func(ls []ConvLayer, kind Residence) (*FusedConv, error) { return NewFusedConv(ls, kind, d) }, d)
}

// chooseResidence is the one residence search: every residence kind
// crossed with the first layer's ThreadBlock_M and three smaller ones,
// each layer's config retiled for the kind, keeping the valid fused
// kernel with the lowest modeled time.
func chooseResidence[L any, F interface{ Time(*gpu.Device) float64 }](layers []L, config func(*L) *cutlass.GemmConfig,
	build func([]L, Residence) (F, error), d *gpu.Device) (F, error) {
	var best F
	found := false
	var firstErr error
	for _, kind := range []Residence{RFResident, SMEMResident} {
		for _, tbM := range []int{config(&layers[0]).TB.M, 64, 32, 16} {
			ls := make([]L, len(layers))
			copy(ls, layers)
			for i := range ls {
				cfg := config(&ls[i])
				*cfg = residenceConfig(*cfg, kind)
				cfg.TB.M = tbM
				if cfg.Warp.M > tbM {
					cfg.Warp.M = tbM
				}
			}
			f, err := build(ls, kind)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if !found || f.Time(d) < best.Time(d) {
				best, found = f, true
			}
		}
	}
	if !found {
		return best, fmt.Errorf("persistent: no valid residence: %w", firstErr)
	}
	return best, nil
}

// residenceConfig adjusts warp tiling for the residence kind:
// RF-resident requires Warp_N == ThreadBlock_N; SMEM-resident prefers
// narrower warps to spread register pressure.
func residenceConfig(c cutlass.GemmConfig, kind Residence) cutlass.GemmConfig {
	out := c
	if kind == RFResident {
		out.Warp.N = out.TB.N
	} else if out.Warp.N == out.TB.N && out.TB.N >= 64 {
		out.Warp.N = out.TB.N / 2
	}
	return out
}
