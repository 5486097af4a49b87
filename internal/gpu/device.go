// Package gpu models an NVIDIA GPU as an analytic performance simulator.
//
// The real Bolt artifact measures kernels on a Tesla T4. This package is
// the substitute substrate: it prices a kernel launch from first
// principles — a compute/memory roofline modulated by occupancy, wave
// quantization, vectorized-access width (alignment), operator class
// (tensor core vs SIMT), and a fixed kernel launch overhead. Every
// optimization Bolt performs (tile-shape selection, epilogue and
// persistent fusion, padding, layout) changes one of those mechanical
// inputs, so relative performance orderings emerge from the model rather
// than being hard-coded per experiment.
package gpu

import (
	"fmt"
	"math"

	"bolt/internal/tensor"
)

// Arch identifies a GPU microarchitecture generation. Bolt's profiler
// keys its heuristic search space on this.
type Arch int

const (
	// SM70 is Volta (V100).
	SM70 Arch = 70
	// SM75 is Turing (Tesla T4) — the paper's evaluation platform.
	SM75 Arch = 75
	// SM80 is Ampere (A100).
	SM80 Arch = 80
)

// String returns e.g. "sm_75".
func (a Arch) String() string { return fmt.Sprintf("sm_%d", int(a)) }

// OpClass distinguishes the functional units a kernel's inner loop
// issues to. CUTLASS uses the same split (OpClassTensorOp vs
// OpClassSimt); Ansor-generated FP16 schedules are SIMT-only, which is
// the root of the performance gap in the paper's Figure 1.
type OpClass int

const (
	// OpClassSIMT issues to ordinary CUDA cores (FFMA/HFMA2).
	OpClassSIMT OpClass = iota
	// OpClassTensorOp issues to tensor cores (HMMA/IMMA).
	OpClassTensorOp
)

// String names the op class in CUTLASS's convention.
func (o OpClass) String() string {
	if o == OpClassTensorOp {
		return "TensorOp"
	}
	return "Simt"
}

// Device describes one GPU. All throughputs are peak theoretical rates;
// the simulator derates them with kernel-specific efficiency factors.
type Device struct {
	Name string
	Arch Arch

	SMs        int     // streaming multiprocessors
	ClockGHz   float64 // boost clock
	WarpSize   int     // threads per warp (32 on every NVIDIA part)
	MaxWarps   int     // resident warps per SM
	MaxBlocks  int     // resident blocks per SM
	MaxThreads int     // resident threads per SM

	RegistersPerSM int // 32-bit registers per SM
	MaxRegsThread  int // per-thread register cap
	SharedMemPerSM int // bytes of shared memory per SM
	SharedMemBlock int // max shared memory per block (opt-in carveout)

	L2Bytes     int     // L2 cache size
	DRAMBWGBs   float64 // global memory bandwidth, GB/s
	LaunchUs    float64 // kernel launch overhead, microseconds
	TensorFP16  float64 // tensor core FP16 TFLOPS
	TensorINT8  float64 // tensor core INT8 TOPS
	SIMTFP32    float64 // CUDA core FP32 TFLOPS
	SIMTFP16    float64 // CUDA core FP16 (HFMA2) TFLOPS
	SMEMBWGBsSM float64 // shared memory bandwidth per SM, GB/s
}

// T4 returns the paper's evaluation device: an NVIDIA Tesla T4
// (Turing TU104, sm_75, 16 GB GDDR6).
func T4() *Device {
	return &Device{
		Name: "Tesla T4", Arch: SM75,
		SMs: 40, ClockGHz: 1.59, WarpSize: 32,
		MaxWarps: 32, MaxBlocks: 16, MaxThreads: 1024,
		RegistersPerSM: 65536, MaxRegsThread: 255,
		SharedMemPerSM: 64 << 10, SharedMemBlock: 64 << 10,
		L2Bytes: 4 << 20, DRAMBWGBs: 320, LaunchUs: 5.0,
		TensorFP16: 65, TensorINT8: 130, SIMTFP32: 8.1, SIMTFP16: 16.2,
		SMEMBWGBsSM: 128,
	}
}

// A100 returns an NVIDIA A100-SXM4-40GB (Ampere GA100, sm_80), used to
// validate the paper's claim that Bolt-generated FP16 GEMM reaches
// >95% of the hardware limit on Ampere.
func A100() *Device {
	return &Device{
		Name: "A100-SXM4-40GB", Arch: SM80,
		SMs: 108, ClockGHz: 1.41, WarpSize: 32,
		MaxWarps: 64, MaxBlocks: 32, MaxThreads: 2048,
		RegistersPerSM: 65536, MaxRegsThread: 255,
		SharedMemPerSM: 164 << 10, SharedMemBlock: 164 << 10,
		L2Bytes: 40 << 20, DRAMBWGBs: 1555, LaunchUs: 4.0,
		TensorFP16: 312, TensorINT8: 624, SIMTFP32: 19.5, SIMTFP16: 78,
		SMEMBWGBsSM: 256,
	}
}

// Named returns a new device of the given Name, made by one of the
// constructors above; nil for a name none of them makes.
func Named(name string) *Device {
	for _, d := range []*Device{T4(), A100()} {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// PeakTFLOPS returns the peak throughput (TFLOPS) for an op class and
// data type on this device.
func (d *Device) PeakTFLOPS(op OpClass, dt tensor.DType) float64 {
	switch op {
	case OpClassTensorOp:
		switch dt {
		case tensor.FP16:
			return d.TensorFP16
		case tensor.INT8:
			return d.TensorINT8
		default:
			// No FP32 tensor op on Turing; fall back to SIMT.
			return d.SIMTFP32
		}
	default:
		switch dt {
		case tensor.FP16:
			return d.SIMTFP16
		case tensor.INT8:
			return 4 * d.SIMTFP32 // dp4a
		default:
			return d.SIMTFP32
		}
	}
}

// KernelDesc is the simulator's view of one kernel launch: resource
// usage plus the work it performs. Kernel implementations (CUTLASS
// templates, Ansor schedules, vendor primitives) lower themselves to
// this descriptor.
type KernelDesc struct {
	Name string

	GridBlocks      int // total threadblocks
	ThreadsPerBlock int
	RegsPerThread   int
	SharedMemBytes  int // per block

	FLOPs        float64 // useful floating-point work
	GlobalLoadB  float64 // bytes read from global memory
	GlobalStoreB float64 // bytes written to global memory

	OpClass OpClass
	DType   tensor.DType

	// AlignmentElems is the vector width, in elements, of global memory
	// accesses (CUTLASS "alignment"): 8 means 128-bit ldg for FP16.
	AlignmentElems int

	// IssueEff is the fraction of peak math issue the inner loop
	// sustains (pipeline drain, predication, instruction mix). Computed
	// by the kernel template from its tile configuration.
	IssueEff float64

	// MemEff is the achieved fraction of DRAM bandwidth ignoring the
	// vectorization penalty (coalescing and L2 behaviour).
	MemEff float64

	// SMEMTrafficB is bytes moved through shared memory (staging );
	// only significant for shared-memory-resident persistent kernels.
	SMEMTrafficB float64

	// BankConflictWays is the average n-way shared memory bank conflict
	// (1 = conflict free). Persistent kernels engineer their layouts to
	// keep this at 1.
	BankConflictWays float64
}

// Occupancy summarizes how many blocks/warps of a kernel fit per SM and
// which resource limits it.
type Occupancy struct {
	BlocksPerSM int
	WarpsPerSM  int
	Limiter     string  // "warps", "blocks", "registers", "smem", "threads"
	Fraction    float64 // warps resident / max warps
}

// Occupancy computes the residency of k on d using the standard CUDA
// occupancy rules (block-granular register and shared-memory packing).
func (d *Device) Occupancy(k KernelDesc) Occupancy {
	warpsPerBlock := (k.ThreadsPerBlock + d.WarpSize - 1) / d.WarpSize
	if warpsPerBlock == 0 {
		warpsPerBlock = 1
	}

	lim := func(v int, name string, cur int, curName string) (int, string) {
		if v < cur {
			return v, name
		}
		return cur, curName
	}

	blocks, limiter := d.MaxBlocks, "blocks"
	blocks, limiter = lim(d.MaxWarps/warpsPerBlock, "warps", blocks, limiter)
	blocks, limiter = lim(d.MaxThreads/k.ThreadsPerBlock, "threads", blocks, limiter)
	if k.RegsPerThread > 0 {
		regsPerBlock := k.RegsPerThread * k.ThreadsPerBlock
		blocks, limiter = lim(d.RegistersPerSM/regsPerBlock, "registers", blocks, limiter)
	}
	if k.SharedMemBytes > 0 {
		blocks, limiter = lim(d.SharedMemPerSM/k.SharedMemBytes, "smem", blocks, limiter)
	}
	if blocks < 0 {
		blocks = 0
	}
	occ := Occupancy{BlocksPerSM: blocks, WarpsPerSM: blocks * warpsPerBlock, Limiter: limiter}
	occ.Fraction = float64(occ.WarpsPerSM) / float64(d.MaxWarps)
	return occ
}

// vectorEff maps an access alignment (in elements of the kernel dtype)
// to the achieved fraction of peak DRAM bandwidth. The largest
// vectorized access on NVIDIA GPUs is 128 bits; narrower accesses
// issue more instructions and more predicates per byte (paper §3.2.3).
func vectorEff(alignElems int, dt tensor.DType) float64 {
	bits := alignElems * dt.Size() * 8
	switch {
	case bits >= 128:
		return 1.0
	case bits >= 64:
		return 0.82
	case bits >= 32:
		return 0.58
	default:
		return 0.40
	}
}

// latencyHidingEff models how well resident warps hide memory and
// pipeline latency: with 8+ warps per SM a Turing SM is essentially
// saturated; below that, throughput degrades smoothly.
func latencyHidingEff(warpsPerSM int) float64 {
	if warpsPerSM <= 0 {
		return 0.05
	}
	e := float64(warpsPerSM) / 8.0
	if e > 1 {
		return 1
	}
	// A lone warp still achieves ~18% of peak on these pipelines.
	return 0.18 + 0.82*e
}

// LatencyHidingEff exposes the resident-warp latency-hiding curve for
// compile-time cost modeling: learned rankers (internal/costmodel)
// build features from the same analytic curves the simulator prices
// with, without ever calling the priced time itself.
func LatencyHidingEff(warpsPerSM int) float64 { return latencyHidingEff(warpsPerSM) }

// VectorEff exposes the global-access vector-width efficiency curve
// (see LatencyHidingEff).
func VectorEff(alignElems int, dt tensor.DType) float64 { return vectorEff(alignElems, dt) }

// perSMBWFactor controls how many SMs it takes to saturate DRAM: each
// SM can draw at most perSMBWFactor * (DRAMBW / SMs), so roughly
// SMs/perSMBWFactor active SMs reach full bandwidth.
const perSMBWFactor = 3.2

// TimeBreakdown reports the roofline components for diagnostics.
type TimeBreakdown struct {
	Total, Launch, Compute, Memory, SMEM float64
	Occ                                  Occupancy
	// Rounds is the number of block-scheduling waves (wave
	// quantization: a 1.01-wave grid costs two waves).
	Rounds int
	// ActiveSMs is how many SMs hold at least one block in steady state.
	ActiveSMs int
	// LatencyEff is the latency-hiding efficiency from resident warps.
	LatencyEff float64
}

// Breakdown prices one launch of k on d from first principles and
// returns all roofline components. KernelTime returns just the total.
//
// Compute model: the grid is distributed round-robin over SMs; each SM
// holds at most Occupancy.BlocksPerSM blocks concurrently, so the grid
// drains in ceil(grid/(SMs*blocksPerSM)) rounds (wave quantization —
// paper §3.2.2: "small problem sizes need small threadblock sizes to
// launch enough threadblocks to keep more SMs busy"). A grid smaller
// than the SM count leaves SMs idle; an SM holding fewer warps than
// needed to hide pipeline latency runs below peak.
func (d *Device) Breakdown(k KernelDesc) TimeBreakdown {
	occ := d.Occupancy(k)
	tb := TimeBreakdown{Occ: occ, Launch: d.LaunchUs * 1e-6}
	if occ.BlocksPerSM == 0 || k.GridBlocks == 0 {
		tb.Total = math.Inf(1)
		return tb
	}

	grid := k.GridBlocks
	slots := occ.BlocksPerSM * d.SMs
	tb.Rounds = (grid + slots - 1) / slots

	// Blocks running concurrently in a full wave, and the SMs they touch.
	conc := grid
	if conc > slots {
		conc = slots
	}
	activeSMs := d.SMs
	if conc < activeSMs {
		activeSMs = conc
	}
	tb.ActiveSMs = activeSMs
	blocksPerActiveSM := float64(conc) / float64(activeSMs)
	warpsPerBlock := (k.ThreadsPerBlock + d.WarpSize - 1) / d.WarpSize
	lat := latencyHidingEff(int(math.Round(blocksPerActiveSM * float64(warpsPerBlock))))
	tb.LatencyEff = lat

	issue := k.IssueEff
	if issue <= 0 {
		issue = 1
	}
	memEff := k.MemEff
	if memEff <= 0 {
		memEff = 1
	}

	peak := d.PeakTFLOPS(k.OpClass, k.DType) * 1e12
	if k.FLOPs > 0 {
		perBlock := k.FLOPs / float64(grid)
		perSMThroughput := peak / float64(d.SMs) * issue * lat
		// Block-granular wave quantization: full waves load every SM
		// with blocksPerSM blocks; the tail wave distributes its
		// remainder round-robin, so the critical SM runs
		// ceil(tail/SMs) extra blocks. Blocks are indivisible — a
		// 1.01-wave grid really does cost a second (cheap) wave.
		fullWaves := grid / slots
		tail := grid % slots
		criticalBlocks := float64(fullWaves * occ.BlocksPerSM)
		if tail > 0 {
			criticalBlocks += math.Ceil(float64(tail) / float64(d.SMs))
		}
		tb.Compute = criticalBlocks * perBlock / perSMThroughput
	}

	// Memory: device bandwidth capped by how many SMs are issuing.
	vec := vectorEff(k.AlignmentElems, k.DType)
	bw := d.DRAMBWGBs * 1e9
	bwCap := math.Min(bw, float64(activeSMs)*perSMBWFactor*bw/float64(d.SMs))
	tb.Memory = (k.GlobalLoadB + k.GlobalStoreB) / (bwCap * memEff * vec)

	if k.SMEMTrafficB > 0 {
		conflicts := math.Max(1, k.BankConflictWays)
		smemBW := d.SMEMBWGBsSM * 1e9 * float64(activeSMs)
		tb.SMEM = k.SMEMTrafficB * conflicts / smemBW
	}

	// Compute and memory pipelines overlap; the kernel runs at the
	// bottleneck. Shared-memory staging sits on the critical path
	// between pipeline stages, so a fraction of it is exposed.
	tb.Total = tb.Launch + math.Max(tb.Compute, tb.Memory) + 0.35*tb.SMEM
	return tb
}

// KernelTime prices one launch of k on d, returning seconds. It is a
// deterministic pure function; measurement noise is added by Measure.
func (d *Device) KernelTime(k KernelDesc) float64 {
	return d.Breakdown(k).Total
}
