// Package persistent implements Bolt's persistent-kernel fusion
// (paper §3.1.1): fusing chains of back-to-back GEMMs or convolutions
// into a single kernel whose main loops run consecutively, keeping the
// intermediate activation in threadblock-local storage.
//
// Two designs are provided, mirroring the paper:
//
//   - RF-resident fusion: the first layer's accumulator stays entirely
//     in the register file. Requires Warp_N == ThreadBlock_N == GEMM_N
//     for every layer (each warp owns the full N extent so the next
//     layer needs no cross-warp data).
//   - Shared-memory-resident fusion: the accumulator is staged through
//     shared memory with a conflict-free layout, relaxing the warp
//     constraint to ThreadBlock_N == GEMM_N.
//
// Both require *threadblock residence*: each layer's output tile must
// stay within the threadblock that produced it, which forces a single
// tile column (ThreadBlock_N covers all of N) and, for convolutions,
// trailing layers with 1x1 filters, stride 1, and no padding.
//
// Build is the one builder of a fused chain: from the layers' dims and
// epilogues it derives every layer's residence tile (Tile) and returns
// the kernel the residence search picks. Graph fusion
// (relay.FusePersistent), lowering (codegen) and the benchmarks all
// build chains through it; UnfusedTime prices the same tiles unfused.
package persistent

import (
	"fmt"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// Residence selects where the inter-layer activation lives.
type Residence int

const (
	// RFResident keeps the intermediate activation in registers.
	RFResident Residence = iota
	// SMEMResident stages the intermediate activation through shared
	// memory.
	SMEMResident
)

// String names the residence kind.
func (r Residence) String() string {
	if r == RFResident {
		return "rf-resident"
	}
	return "smem-resident"
}

// GemmLayer is one GEMM in a fused chain: D_i = epilogue_i(D_{i-1} · W_i).
type GemmLayer struct {
	N, K     int
	Config   cutlass.GemmConfig
	Epilogue cutlass.Epilogue
}

// FusedGemm is a validated persistent kernel fusing len(Layers) GEMMs
// that share the M dimension.
type FusedGemm struct {
	M      int
	Layers []GemmLayer
	Kind   Residence

	gemms []*cutlass.Gemm // one functional kernel per layer, each keeping its packed weights
}

func roundUp(x, to int) int { return (x + to - 1) / to * to }

// NewFusedGemm validates threadblock residence and resource limits and
// returns the fused kernel.
func NewFusedGemm(m int, layers []GemmLayer, kind Residence, d *gpu.Device) (*FusedGemm, error) {
	if len(layers) < 2 {
		return nil, fmt.Errorf("persistent: need at least 2 layers, have %d", len(layers))
	}
	if m <= 0 {
		return nil, fmt.Errorf("persistent: non-positive M %d", m)
	}
	tbM := layers[0].Config.TB.M
	for i, l := range layers {
		if err := l.Config.Validate(d); err != nil {
			return nil, fmt.Errorf("persistent: layer %d: %w", i, err)
		}
		if l.N <= 0 || l.K <= 0 {
			return nil, fmt.Errorf("persistent: layer %d has non-positive dims (N=%d, K=%d)", i, l.N, l.K)
		}
		// The M dimension must stay the same for all layers (paper eq. 1-2),
		// and every layer must use the same threadblock row partition.
		if l.Config.TB.M != tbM {
			return nil, fmt.Errorf("persistent: layer %d ThreadBlock_M %d != layer 0's %d", i, l.Config.TB.M, tbM)
		}
		// Threadblock residence: one tile column covers the whole GEMM N
		// (ThreadBlock_N = GEMM_N, modulo instruction-shape padding), so
		// the next layer's input never leaves the threadblock.
		if l.Config.TB.N < l.N {
			return nil, fmt.Errorf("persistent: layer %d violates threadblock residence: ThreadBlock_N %d < GEMM_N %d",
				i, l.Config.TB.N, l.N)
		}
		if kind == RFResident && l.Config.Warp.N != l.Config.TB.N {
			return nil, fmt.Errorf("persistent: layer %d violates RF residence: Warp_N %d != ThreadBlock_N %d",
				i, l.Config.Warp.N, l.Config.TB.N)
		}
		if i > 0 && l.K != layers[i-1].N {
			return nil, fmt.Errorf("persistent: layer %d input K %d != layer %d output N %d",
				i, l.K, i-1, layers[i-1].N)
		}
	}
	f := &FusedGemm{M: m, Layers: layers, Kind: kind}
	if kind == RFResident && f.regsPerThread() > d.MaxRegsThread {
		return nil, fmt.Errorf("persistent: RF-resident fusion needs %d registers/thread, cap is %d (use smem-resident)",
			f.regsPerThread(), d.MaxRegsThread)
	}
	if f.sharedMemBytes() > d.SharedMemBlock {
		return nil, fmt.Errorf("persistent: fused kernel needs %d B shared memory, cap is %d",
			f.sharedMemBytes(), d.SharedMemBlock)
	}
	f.gemms = make([]*cutlass.Gemm, len(layers))
	for i, l := range layers {
		f.gemms[i] = &cutlass.Gemm{Config: l.Config, Epilogue: l.Epilogue}
	}
	return f, nil
}

// regsPerThread estimates peak register pressure. RF-resident fusion
// holds the producing layer's accumulator fragment while computing the
// consumer, so consecutive layers' accumulators coexist (the paper's
// stated RF-pressure limitation for large GEMM_N).
func (f *FusedGemm) regsPerThread() int {
	peak := 0
	for i, l := range f.Layers {
		regs := l.Config.RegsPerThread()
		if f.Kind == RFResident && i > 0 {
			prev := f.Layers[i-1].Config
			regs += prev.Warp.M * prev.Warp.N / 32 // live accumulator fragment
		}
		if regs > peak {
			peak = regs
		}
	}
	return peak
}

// sharedMemBytes returns the fused kernel's shared-memory footprint:
// the largest layer staging plus, for SMEM residence, the accumulator
// tile buffer.
func (f *FusedGemm) sharedMemBytes() int {
	peak := 0
	for _, l := range f.Layers {
		s := l.Config.SharedMemBytes()
		if s > peak {
			peak = s
		}
	}
	if f.Kind == SMEMResident {
		// FP16 accumulator tile staged between layers (stored through
		// the smem fragment iterator).
		staging := 0
		for _, l := range f.Layers[:len(f.Layers)-1] {
			s := l.Config.TB.M * l.Config.TB.N * 2
			if s > staging {
				staging = s
			}
		}
		peak += staging
	}
	return peak
}

// Name returns a kernel name in the CUTLASS b2b convention.
func (f *FusedGemm) Name() string {
	return fmt.Sprintf("cutlass_b2b_gemm_x%d_%s", len(f.Layers), f.Kind)
}

// RunInto executes the fused chain functionally (see runChain):
// weights[i] is layer i's K×N matrix, and biases[i] may be nil. f must
// come from NewFusedGemm, which builds the per-layer kernels.
func (f *FusedGemm) RunInto(dst *tensor.Tensor, a0 *tensor.Tensor, weights, biases []*tensor.Tensor) *tensor.Tensor {
	return runChain(f.gemms, len(f.Layers), dst, a0, weights, biases)
}

// Residence returns f.Kind.
func (f *FusedGemm) Residence() Residence { return f.Kind }

// Desc lowers the fused kernel to one device descriptor: a single
// launch whose main loops run back-to-back. Global traffic contains
// only the first layer's input, each layer's weights, and the final
// store — the intermediate activations never touch global memory
// (the paper's benefit (i)); the single launch is benefit (ii).
func (f *FusedGemm) Desc(d *gpu.Device) gpu.KernelDesc {
	first := f.Layers[0]
	tbM := first.Config.TB.M
	tilesM := (f.M + tbM - 1) / tbM
	esize := first.Config.DType.Size()

	flops := 0.0
	loadB := float64(f.M) * float64(first.K) * float64(esize) // A0
	issueNum, issueDen := 0.0, 0.0
	threads := 0
	for _, l := range f.Layers {
		// Tensor cores process the instruction-padded tile.
		nEff := roundUp(l.N, l.Config.Inst.N)
		kEff := roundUp(l.K, l.Config.Inst.K)
		lf := 2 * float64(f.M) * float64(nEff) * float64(kEff)
		flops += lf + l.Epilogue.FLOPsOn(f.M, l.N)
		// Weights are shared by all threadblocks concurrently; they are
		// DRAM-read once and then served from L2.
		loadB += float64(l.K) * float64(l.N) * float64(esize)
		issueNum += lf * l.Config.IssueEffForK(l.K)
		issueDen += lf
		if th := l.Config.Threads(); th > threads {
			threads = th
		}
		if l.Epilogue.BiasVector {
			loadB += float64(l.N) * float64(esize)
		}
	}
	last := f.Layers[len(f.Layers)-1]
	storeB := float64(f.M) * float64(last.N) * float64(last.Epilogue.OutDType.Size())

	smemTraffic := 0.0
	if f.Kind == SMEMResident {
		// Each intermediate tile is written to and read from shared
		// memory once (conflict-free layout by construction).
		for _, l := range f.Layers[:len(f.Layers)-1] {
			smemTraffic += 2 * float64(f.M) * float64(l.N) * 2
		}
	}

	align := first.Config.AlignA
	return gpu.KernelDesc{
		Name:             f.Name(),
		GridBlocks:       tilesM,
		ThreadsPerBlock:  threads,
		RegsPerThread:    f.regsPerThread(),
		SharedMemBytes:   f.sharedMemBytes(),
		FLOPs:            flops,
		GlobalLoadB:      loadB,
		GlobalStoreB:     storeB,
		OpClass:          first.Config.Op,
		DType:            first.Config.DType,
		AlignmentElems:   align,
		IssueEff:         issueNum / issueDen,
		MemEff:           0.92,
		SMEMTrafficB:     smemTraffic,
		BankConflictWays: 1,
	}
}

// Time prices the fused kernel.
func (f *FusedGemm) Time(d *gpu.Device) float64 { return d.KernelTime(f.Desc(d)) }

// UnfusedGemmTime prices the baseline: each layer as its own kernel
// (epilogue still fused per layer — the paper's "Bolt with only
// epilogue fusion" baseline), paying the intermediate store+load and
// one launch per layer.
func UnfusedGemmTime(d *gpu.Device, m int, layers []GemmLayer) float64 {
	total := 0.0
	for _, l := range layers {
		g := &cutlass.Gemm{Config: unfusedConfig(l.Config), Epilogue: l.Epilogue}
		total += g.Time(d, m, l.N, l.K)
	}
	return total
}

// unfusedConfig widens a residence-constrained tile config back to a
// generic one (the standalone kernel need not cover all of N with one
// tile; pick the library default 128x128 when it fits).
func unfusedConfig(c cutlass.GemmConfig) cutlass.GemmConfig {
	out := c
	if out.TB.N > 128 {
		out.TB.N = 128
		if out.Warp.N > 64 {
			out.Warp.N = 64
		}
	}
	return out
}
