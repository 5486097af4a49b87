package persistent

import (
	"fmt"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// Layer is one layer of a chain before its tile is chosen: a GEMM
// layer's output and reduction extents N and K, or a convolution's
// shape Conv, with the layer's epilogue and a convolution's
// FilterScale (see cutlass.Conv2D).
type Layer struct {
	N, K        int
	Conv        cutlass.ConvShape
	Epilogue    cutlass.Epilogue
	FilterScale []float32
}

func (l Layer) isConv() bool { return l.Conv != cutlass.ConvShape{} }

// Kernel is a fused chain's kernel: a *FusedGemm or a *FusedConv.
type Kernel interface {
	Name() string
	Residence() Residence
	Desc(d *gpu.Device) gpu.KernelDesc
	Time(d *gpu.Device) float64
	RunInto(dst, x *tensor.Tensor, weights, biases []*tensor.Tensor) *tensor.Tensor
}

// Tile returns a layer's residence tile in dtype dt: one threadblock
// tile column covers the layer's output extent (N, or a convolution's
// OC), and operands load at that extent's cutlass.AlignFor — a
// convolution's A and B at most at its IC's, as they read input
// channels. FP32 layers tile for the SIMT path (no FP32 tensor cores).
// ok is false when residence is infeasible: the tile's shared-memory
// staging does not fit.
func Tile(l Layer, dt tensor.DType, d *gpu.Device) (cfg cutlass.GemmConfig, ok bool) {
	n, in := l.N, l.N
	if l.isConv() {
		n, in = l.Conv.OC, l.Conv.IC
	}
	tbN := max(roundUp(n, 8), 8)
	op, inst := gpu.OpClassTensorOp, cutlass.InstructionShape(d.Arch)
	if dt == tensor.FP32 {
		op, inst = gpu.OpClassSIMT, cutlass.Shape3{M: 1, N: 1, K: 1}
	}
	align := cutlass.AlignFor(n, dt)
	ab := min(align, cutlass.AlignFor(in, dt))
	cfg = cutlass.GemmConfig{
		TB:     cutlass.Shape3{M: 64, N: tbN, K: 32},
		Warp:   cutlass.Shape3{M: 16, N: tbN, K: 32},
		Inst:   inst,
		Stages: 2, SwizzleLog: 0,
		AlignA: ab, AlignB: ab, AlignC: align,
		Op: op, DType: dt,
	}
	return cfg, cfg.SharedMemBytes() <= d.SharedMemBlock
}

// Build is the one builder of a fused chain: it gives every layer its
// Tile and returns the fused kernel the residence search picks (see
// ChooseGemmResidence). A chain of convolutions builds a *FusedConv;
// any other builds a *FusedGemm of m rows (a conv chain's rows follow
// from its shapes, and m is unused).
func Build(m int, layers []Layer, dt tensor.DType, d *gpu.Device) (Kernel, error) {
	if len(layers) > 0 && layers[0].isConv() {
		ls, err := tiled(layers, dt, d, convLayer)
		if err != nil {
			return nil, err
		}
		f, err := ChooseConvResidence(ls, d)
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	ls, err := tiled(layers, dt, d, gemmLayer)
	if err != nil {
		return nil, err
	}
	f, err := ChooseGemmResidence(m, ls, d)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// UnfusedTime prices the chain Build fuses as one kernel per layer,
// each widened from its Tile (see UnfusedGemmTime): the time the fused
// kernel must beat.
func UnfusedTime(m int, layers []Layer, dt tensor.DType, d *gpu.Device) float64 {
	total := 0.0
	for _, l := range layers {
		cfg, _ := Tile(l, dt, d) // an infeasible residence still prices unfused
		if l.isConv() {
			total += UnfusedConvTime(d, []ConvLayer{convLayer(l, cfg)})
		} else {
			total += UnfusedGemmTime(d, m, []GemmLayer{gemmLayer(l, cfg)})
		}
	}
	return total
}

// tiled gives every layer its Tile through layer, or reports the first
// layer whose residence is infeasible.
func tiled[L any](layers []Layer, dt tensor.DType, d *gpu.Device, layer func(Layer, cutlass.GemmConfig) L) ([]L, error) {
	out := make([]L, len(layers))
	for i, l := range layers {
		cfg, ok := Tile(l, dt, d)
		if !ok {
			return nil, infeasible(i)
		}
		out[i] = layer(l, cfg)
	}
	return out, nil
}

// infeasible is the error of a chain whose layer's residence is
// infeasible; graph fusion meets it for every wide chain it tries, so
// it formats only when read.
type infeasible int

func (i infeasible) Error() string {
	return fmt.Sprintf("persistent: layer %d: residence infeasible", int(i))
}

func gemmLayer(l Layer, cfg cutlass.GemmConfig) GemmLayer {
	return GemmLayer{N: l.N, K: l.K, Config: cfg, Epilogue: l.Epilogue}
}

func convLayer(l Layer, cfg cutlass.GemmConfig) ConvLayer {
	return ConvLayer{Shape: l.Conv, Config: cfg, Epilogue: l.Epilogue, FilterScale: l.FilterScale}
}

// runChain runs a chain's per-layer kernels back to back: numerically
// the unfused pipeline (each intermediate is stored in the layer's
// output dtype before the next main loop reads it, exactly as the
// unfused store+load would). weights[i] is layer i's weight, read-only
// from the chain's first run on; biases[i] may be nil. The last layer
// writes into dst (nil allocates); the intermediates model the fused
// kernel's register/SMEM residence and never touch the arena. It
// returns the destination.
func runChain[K interface {
	RunInto(dst, x, w, bias *tensor.Tensor) *tensor.Tensor
}](kernels []K, layers int, dst, x *tensor.Tensor, weights, biases []*tensor.Tensor) *tensor.Tensor {
	if len(kernels) != layers {
		panic("persistent: fused kernel not built by NewFusedGemm or NewFusedConv")
	}
	if len(weights) != layers {
		panic(fmt.Sprintf("persistent: %d weights for %d layers", len(weights), layers))
	}
	cur := x
	for i, k := range kernels {
		var b, out *tensor.Tensor
		if biases != nil {
			b = biases[i]
		}
		if i == len(kernels)-1 {
			out = dst
		}
		cur = k.RunInto(out, cur, weights[i], b)
	}
	return cur
}
