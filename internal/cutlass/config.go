// Package cutlass is a Go reimplementation of the *shape* of NVIDIA
// CUTLASS: a templated, declaratively parameterized GEMM/Conv kernel
// library.
//
// A kernel is described by a GemmConfig — threadblock, warp, and
// instruction tile shapes, pipeline stages, threadblock swizzling,
// and per-operand alignment — exactly the parameter surface Bolt's
// profiler searches (paper §3.2.2). Configs validate against the same
// divisibility and capacity rules real CUTLASS enforces at compile
// time. Instantiated kernels execute functionally (correct numerics
// over emulated FP16) and lower themselves to gpu.KernelDesc for
// pricing on the device model.
package cutlass

import (
	"fmt"
	"strconv"

	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// Shape3 is an (M, N, K) tile shape.
type Shape3 struct {
	M, N, K int
}

// String renders as "MxNxK" in CUTLASS kernel-name convention.
func (s Shape3) String() string {
	var buf [64]byte
	return string(appendInts(buf[:0], "x", s.M, s.N, s.K))
}

// appendInts writes xs in decimal, sep between each two.
func appendInts(b []byte, sep string, xs ...int) []byte {
	for i, x := range xs {
		if i > 0 {
			b = append(b, sep...)
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return b
}

// Area returns M*N, the output footprint of the tile.
func (s Shape3) Area() int { return s.M * s.N }

// InstructionShape returns the native tensor-core MMA shape for an
// architecture (HMMA m16n8k8 on Turing, m16n8k16 on Ampere).
func InstructionShape(arch gpu.Arch) Shape3 {
	if arch >= gpu.SM80 {
		return Shape3{16, 8, 16}
	}
	return Shape3{16, 8, 8}
}

// GemmConfig selects one point in the CUTLASS template parameter space.
type GemmConfig struct {
	// TB, Warp, Inst are the threadblock, warp, and instruction tile
	// shapes. TB is partitioned into warps in M and N; Warp.K == TB.K.
	TB, Warp, Inst Shape3

	// Stages is the software pipeline depth of the global->shared
	// memory staging (2 on Turing; up to 4-5 on Ampere).
	Stages int

	// SwizzleLog selects the threadblock swizzling functor: tiles are
	// scheduled in 2^SwizzleLog × 2^SwizzleLog groups to improve L2
	// locality.
	SwizzleLog int

	// AlignA/B/C are the vector access widths in elements for the two
	// operands and the output (8 = 128-bit for FP16).
	AlignA, AlignB, AlignC int

	// Op selects tensor cores or SIMT CUDA cores.
	Op gpu.OpClass

	// DType is the operand element type (accumulation is FP32).
	DType tensor.DType
}

// WarpsM returns the number of warps along M.
func (c GemmConfig) WarpsM() int { return c.TB.M / c.Warp.M }

// WarpsN returns the number of warps along N.
func (c GemmConfig) WarpsN() int { return c.TB.N / c.Warp.N }

// WarpCount returns total warps per threadblock.
func (c GemmConfig) WarpCount() int { return c.WarpsM() * c.WarpsN() }

// Threads returns threads per threadblock.
func (c GemmConfig) Threads() int { return c.WarpCount() * 32 }

// SharedMemBytes returns the shared memory consumed by the pipelined
// A and B tile stages.
func (c GemmConfig) SharedMemBytes() int {
	return c.Stages * (c.TB.M + c.TB.N) * c.TB.K * c.DType.Size()
}

// RegsPerThread estimates the register budget: FP32 accumulators for
// the warp tile plus double-buffered operand fragments plus fixed
// overhead for pointers and predicates.
func (c GemmConfig) RegsPerThread() int {
	accum := c.Warp.M * c.Warp.N / 32
	operands := (c.Warp.M + c.Warp.N) * c.Inst.K / 32
	return accum + operands + 32
}

// Name renders a CUTLASS-style kernel name, e.g.
// "cutlass_tensorop_h1688gemm_128x128_32x2_align8".
func (c GemmConfig) Name() string {
	var buf [128]byte
	b := append(buf[:0], "cutlass_"...)
	if c.Op == gpu.OpClassTensorOp {
		b = appendInts(append(b, "tensorop_h"...), "", c.Inst.M, c.Inst.N, c.Inst.K)
	} else {
		b = append(b, "simt_s"...)
	}
	b = appendInts(append(b, "gemm_"...), "x", c.TB.M, c.TB.N)
	b = appendInts(append(b, '_'), "x", c.TB.K, c.Stages)
	b = appendInts(append(b, "_align"...), "", c.AlignC)
	return string(b)
}

// validAlign accepts the CUTLASS alignment ladder; 16 exists for
// 8-bit operands (16 x int8 = 128 bits).
func validAlign(a int) bool { return a == 1 || a == 2 || a == 4 || a == 8 || a == 16 }

// MaxAlignment returns the widest legal vector access (elements) for a
// dtype: 128 bits / element size.
func MaxAlignment(dt tensor.DType) int { return 16 / dt.Size() }

// AlignFor returns the alignment of an operand whose contiguous extent
// is n: the widest of 8, 4 and 2 elements dividing n (else 1), capped
// at the dtype's 128-bit width (FP32 loads at most 4 elements per
// ldg.128).
func AlignFor(n int, dt tensor.DType) int {
	for a := 8; a > 1; a /= 2 {
		if n%a == 0 {
			return min(a, MaxAlignment(dt))
		}
	}
	return 1
}

// Validate enforces the structural rules the CUTLASS template system
// checks at compile time plus the device resource limits that would
// make the kernel unlaunchable.
func (c GemmConfig) Validate(d *gpu.Device) error {
	if c.TB.M <= 0 || c.TB.N <= 0 || c.TB.K <= 0 {
		return fmt.Errorf("cutlass: non-positive threadblock shape %v", c.TB)
	}
	if c.Warp.M <= 0 || c.Warp.N <= 0 || c.Warp.K <= 0 {
		return fmt.Errorf("cutlass: non-positive warp shape %v", c.Warp)
	}
	if c.TB.M%c.Warp.M != 0 || c.TB.N%c.Warp.N != 0 {
		return fmt.Errorf("cutlass: warp %v does not tile threadblock %v", c.Warp, c.TB)
	}
	if c.Warp.K != c.TB.K {
		return fmt.Errorf("cutlass: warp K %d must equal threadblock K %d", c.Warp.K, c.TB.K)
	}
	if c.Op == gpu.OpClassTensorOp {
		if c.Inst.M <= 0 || c.Inst.N <= 0 || c.Inst.K <= 0 {
			return fmt.Errorf("cutlass: non-positive instruction shape %v", c.Inst)
		}
		if c.Warp.M%c.Inst.M != 0 || c.Warp.N%c.Inst.N != 0 || c.Warp.K%c.Inst.K != 0 {
			return fmt.Errorf("cutlass: instruction %v does not tile warp %v", c.Inst, c.Warp)
		}
		if c.DType == tensor.FP32 {
			return fmt.Errorf("cutlass: no FP32 tensor cores on %s", d.Arch)
		}
		if c.DType == tensor.INT8 && d.Arch < gpu.SM75 {
			return fmt.Errorf("cutlass: INT8 tensor cores (IMMA) require sm_75+, have %s", d.Arch)
		}
	}
	warps := c.WarpCount()
	if warps < 1 || warps > 16 {
		return fmt.Errorf("cutlass: %d warps per threadblock out of range [1,16]", warps)
	}
	if c.Threads() > d.MaxThreads {
		return fmt.Errorf("cutlass: %d threads exceeds device max %d", c.Threads(), d.MaxThreads)
	}
	if c.Stages < 2 || c.Stages > 5 {
		return fmt.Errorf("cutlass: stages %d out of range [2,5]", c.Stages)
	}
	if c.Stages > 2 && d.Arch < gpu.SM80 {
		return fmt.Errorf("cutlass: multistage (cp.async) pipelines require sm_80, have %s", d.Arch)
	}
	if smem := c.SharedMemBytes(); smem > d.SharedMemBlock {
		return fmt.Errorf("cutlass: %d B shared memory exceeds device %d B", smem, d.SharedMemBlock)
	}
	if regs := c.RegsPerThread(); regs > d.MaxRegsThread {
		return fmt.Errorf("cutlass: %d registers/thread exceeds device cap %d", regs, d.MaxRegsThread)
	}
	if regs := c.RegsPerThread() * c.Threads(); regs > d.RegistersPerSM {
		return fmt.Errorf("cutlass: block needs %d registers, SM has %d — kernel cannot launch", regs, d.RegistersPerSM)
	}
	if c.SwizzleLog < 0 || c.SwizzleLog > 3 {
		return fmt.Errorf("cutlass: swizzle log %d out of range [0,3]", c.SwizzleLog)
	}
	if !validAlign(c.AlignA) || !validAlign(c.AlignB) || !validAlign(c.AlignC) {
		return fmt.Errorf("cutlass: alignments must be 1/2/4/8, got %d/%d/%d", c.AlignA, c.AlignB, c.AlignC)
	}
	return nil
}

// SupportsProblem reports whether the config's alignments are legal for
// a given GEMM problem size: the contiguous dimension of each operand
// must be divisible by its alignment (paper §3.2.3 — unaligned shapes
// force alignment 1 or 2 kernels).
func (c GemmConfig) SupportsProblem(m, n, k int) bool {
	// A is MxK row-major (contiguous K); B is KxN row-major
	// (contiguous N); C/D are MxN (contiguous N).
	return k%c.AlignA == 0 && n%c.AlignB == 0 && n%c.AlignC == 0
}

// issueEff models the sustained fraction of peak math issue for the
// config's main loop: pipeline fill/drain cost over the K iterations,
// and per-warp amortization of shared-memory operand fetches (large
// warp tiles achieve a higher compute-to-memory ratio, one of the
// profiler's stated heuristics).
func (c GemmConfig) issueEff(k int) float64 {
	kIters := float64((k + c.TB.K - 1) / c.TB.K)
	pipe := kIters / (kIters + float64(c.Stages) - 1)
	warpArea := float64(c.Warp.M * c.Warp.N)
	warp := warpArea / (warpArea + 128)
	base := 0.98
	if c.Op == gpu.OpClassSIMT {
		base = 0.90
	}
	// Deeper software pipelines (cp.async multistage on sm_80) keep the
	// tensor cores fed across global-memory latency spikes. Normalized
	// so the 2-stage Turing baseline is 1.0.
	feed := (float64(c.Stages) / (float64(c.Stages) + 0.35)) / (2 / 2.35)
	return base * pipe * warp * feed * alignIssueEff(min2(c.AlignA, c.AlignB))
}

// alignIssueEff models the main-loop slowdown of narrow-alignment
// kernels: below 128-bit vectors, every shared-memory stage moves data
// with more (and predicated) instructions, and ldmatrix feeding the
// tensor cores degrades to element loads (paper §3.2.3 — this is why
// Bolt pads to alignment 8 rather than just accepting slower DRAM
// access).
func alignIssueEff(align int) float64 {
	switch {
	case align >= 8:
		return 1.0
	case align >= 4:
		return 0.72
	case align >= 2:
		return 0.42
	default:
		return 0.28
	}
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// IssueEffForK exposes the main-loop issue-efficiency model so that
// fused kernels built outside this package (persistent kernels) can
// price their stacked main loops consistently.
func (c GemmConfig) IssueEffForK(k int) float64 { return c.issueEff(k) }

// tileCounts returns grid tiling of an m x n output.
func (c GemmConfig) tileCounts(m, n int) (tilesM, tilesN int) {
	return (m + c.TB.M - 1) / c.TB.M, (n + c.TB.N - 1) / c.TB.N
}

// L2Discounted returns the DRAM traffic for an operand whose
// compulsory footprint is read `rereads` times by different tile
// groups: if the whole operand stays resident in L2 (with headroom for
// the other streams), only the compulsory read reaches DRAM.
func L2Discounted(d *gpu.Device, footprintB float64, rereads int) float64 {
	if rereads <= 1 || footprintB*4 <= float64(d.L2Bytes) {
		return footprintB
	}
	return footprintB * float64(rereads)
}

// traffic estimates DRAM traffic (bytes loaded, stored) for an
// m x n x k GEMM under this config. Threadblock swizzling schedules
// tiles in g x g groups whose operand rows/columns stay L2-resident,
// dividing redundant re-reads by g (shrunk when the group footprint
// exceeds L2); an operand small enough to live in L2 outright is only
// read from DRAM once regardless.
func (c GemmConfig) traffic(d *gpu.Device, m, n, k int, outSize int) (loadB, storeB float64) {
	esize := c.DType.Size()
	tilesM, tilesN := c.tileCounts(m, n)
	g := 1 << c.SwizzleLog
	if g > tilesM {
		g = tilesM
	}
	if g > tilesN {
		g = tilesN
	}
	if g < 1 {
		g = 1
	}
	// Tiles in a swizzle group march through K together, so the shared
	// L2 working set is one pipeline slice per group member, not the
	// whole K depth. Shrink the group only if even the slice footprint
	// overflows L2 (rare).
	for g > 1 && g*(c.TB.M+c.TB.N)*c.TB.K*c.Stages*esize*4 > d.L2Bytes {
		g /= 2
	}
	aFoot := float64(m) * float64(k) * float64(esize)
	bFoot := float64(k) * float64(n) * float64(esize)
	loadB = L2Discounted(d, aFoot, (tilesN+g-1)/g) + L2Discounted(d, bFoot, (tilesM+g-1)/g)
	return loadB, float64(m) * float64(n) * float64(outSize)
}
