// Package bolt is the public API of the Bolt reproduction: an
// end-to-end tensor-program optimizer that bridges auto-tuning
// flexibility and hardware-native templated-library performance
// (Xing, Wang, Zhang, Chen, Chen, Zhu — "Bolt: Bridging the Gap
// between Auto-tuners and Hardware-native Performance", MLSys 2022).
//
// The typical flow mirrors the paper's Figure 3:
//
//	g := bolt.NewBuilder()            // author or import a model graph
//	... build graph ...
//	dev := bolt.T4()                  // pick a device model
//	mod, err := bolt.Compile(graph, dev, bolt.Options{})
//	out := mod.Run(inputs)            // functional execution
//	imgs := mod.Throughput(batch)     // modeled performance
//
// Compile runs graph-level optimization (BatchNorm folding, epilogue
// fusion, layout transformation, kernel padding, persistent kernel
// fusion), hardware-native profiling of every templated kernel, and
// code generation. CompileBaseline compiles through the opaque
// Ansor-style auto-tuner instead, for comparisons.
package bolt

import (
	"fmt"
	"time"

	"bolt/internal/ansor"
	"bolt/internal/codegen"
	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/profiler"
	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/tensor"
	"bolt/internal/tunelog"
)

// Re-exported core types. The implementation lives in internal
// packages; these aliases are the supported public surface.
type (
	// Device is a GPU performance model (the simulated hardware).
	Device = gpu.Device
	// Graph is a relay dataflow graph.
	Graph = relay.Graph
	// Builder constructs graphs with shape inference.
	Builder = relay.Builder
	// Node is one operator in a graph.
	Node = relay.Node
	// Module is a compiled, runnable, priceable model.
	Module = rt.Module
	// Tensor is a dense n-dimensional array.
	Tensor = tensor.Tensor
	// TuningStats reports what the compilation pipeline's tuning stages
	// did: workload counts, dedup, cache hits, and measurements.
	TuningStats = rt.TuningStats
	// Activation enumerates epilogue nonlinearities.
	Activation = cutlass.Activation
	// ConvShape describes a convolution problem.
	ConvShape = cutlass.ConvShape
	// GemmConfig is a CUTLASS-style template parameterization.
	GemmConfig = cutlass.GemmConfig
)

// Activation values.
const (
	ReLU      = cutlass.ActReLU
	GELU      = cutlass.ActGELU
	Hardswish = cutlass.ActHardswish
	Softplus  = cutlass.ActSoftplus
	Sigmoid   = cutlass.ActSigmoid
	Identity  = cutlass.ActIdentity
)

// Data types.
const (
	FP16 = tensor.FP16
	FP32 = tensor.FP32
	INT8 = tensor.INT8
)

// T4 returns the paper's evaluation device: an NVIDIA Tesla T4 model.
func T4() *Device { return gpu.T4() }

// A100 returns an NVIDIA A100 model (sm_80).
func A100() *Device { return gpu.A100() }

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder { return relay.NewBuilder() }

// NewTensor allocates a zero tensor.
func NewTensor(dt tensor.DType, shape ...int) *Tensor { return tensor.New(dt, shape...) }

// Options configures Compile.
type Options struct {
	// EmitSource attaches generated CUDA-like CUTLASS instantiations to
	// each Bolt kernel (inspect with Module.Sources).
	EmitSource bool
	// CacheFile names a persistent tuning-log database (JSON). If the
	// file exists it is loaded before compilation — workloads found in
	// it skip profiling entirely — and afterwards the log is written
	// back unless the file already holds all of it (tunelog.Open and
	// Persist): a warm recompile of the same model measures nothing and
	// leaves the file alone. Compiles in one process that share the
	// file keep each other's entries. The write merges what other
	// processes wrote since the load, except a write that lands between
	// this one's last read of the file and its rename: that one is lost.
	CacheFile string
	// Jobs is the number of concurrent profiling workers. TuningTime
	// reports the pool's critical path (max across workers), so more
	// jobs means honestly less simulated tuning time. Values < 1 mean 1.
	Jobs int
	// TopK, when > 0, enables guided tuning: the cost model persisted
	// in CacheFile ranks each workload's candidates and only the k
	// best are measured. Requires CacheFile (the model lives in the
	// tuning log); until the model has trained, sweeps stay full. The
	// default (0) is the unchanged full sweep.
	TopK int
	// TrustThreshold, when > 0, lets sufficiently confident models skip
	// measurement entirely: once the cost model's held-out
	// rank-correlation confidence reaches the threshold, workloads
	// resolve to the predicted-best config with zero measurements, and
	// their tunelog entries are flagged predicted. Requires CacheFile.
	TrustThreshold float64
}

// CompileResult bundles the module with tuning metadata.
type CompileResult struct {
	Module *Module
	// TuningTime is the simulated wall-clock cost of auto-tuning
	// (profiling for Bolt; search for the baseline). With Jobs > 1 the
	// profiling portion is the pool's critical path, not the sum.
	TuningTime time.Duration
	// Tuning breaks the pipeline's work down: total and unique
	// workloads, cache hits (unique workloads resolved from CacheFile
	// without measuring), and candidate kernels actually measured.
	Tuning TuningStats
}

// Compile optimizes and compiles a graph for the device.
func Compile(g *Graph, dev *Device, opts Options) (*CompileResult, error) {
	if (opts.TopK > 0 || opts.TrustThreshold > 0) && opts.CacheFile == "" {
		return nil, fmt.Errorf("bolt: guided tuning (TopK=%d, TrustThreshold=%g) requires Options.CacheFile: the cost model persists in the tuning log", opts.TopK, opts.TrustThreshold)
	}
	var cache *tunelog.Log
	if opts.CacheFile != "" {
		var err error
		if cache, err = tunelog.Open(opts.CacheFile); err != nil {
			return nil, err
		}
	}
	res, err := compileTemplated(g, dev, codegen.Options{
		Log:            cache,
		Jobs:           opts.Jobs,
		TopK:           opts.TopK,
		TrustThreshold: opts.TrustThreshold,
		EmitSource:     opts.EmitSource,
	})
	if err != nil {
		return nil, err
	}
	if cache != nil {
		if err := cache.Persist(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// CompileBaseline compiles g through the opaque Ansor-style auto-tuner
// instead of Bolt's templated search, for comparison experiments: the
// TVM-level graph passes only, then every distinct anchor workload
// ("task") tuned with a budget of trials measured candidates. trials <
// 1 means 900, the TVM-recommended budget. The search has one fixed
// seed, so a baseline compile is reproducible; it has no tuning log, no
// profiling pool and its own internal cost model, so none of Options
// applies to it.
func CompileBaseline(g *Graph, dev *Device, trials int) (*CompileResult, error) {
	var clock gpu.Clock
	m, err := codegen.Baseline(g, dev, ansor.NewTuner(dev, &clock, 1), trials)
	if err != nil {
		return nil, err
	}
	return &CompileResult{Module: m, TuningTime: clock.ElapsedDuration()}, nil
}

// compileTemplated is the templated pipeline,
// codegen.Build on a fresh profiler, with opts.Log the in-memory
// tuning log (nil for no cache, no guidance). Compile wraps it with
// CacheFile's Open and Persist; the serving Server calls it directly
// with a log it opened once and shares across every tenant's variant
// compiles.
func compileTemplated(g *Graph, dev *Device, opts codegen.Options) (*CompileResult, error) {
	var clock gpu.Clock
	opts.Profiler = profiler.New(dev, &clock)
	m, err := codegen.Build(g, dev, opts)
	if err != nil {
		return nil, err
	}
	return &CompileResult{
		Module:     m,
		TuningTime: clock.ElapsedDuration(),
		Tuning:     m.Tuning,
	}, nil
}

// ProfileGemm searches the templated-kernel parameter space for one
// GEMM workload and returns the best configuration with its modeled
// time in seconds — the light-weight profiler of paper §3.2.2 as a
// standalone tool.
func ProfileGemm(dev *Device, m, n, k int) (GemmConfig, float64, error) {
	p := profiler.New(dev, nil)
	p.Measure.NoiseStdDev = 0
	res, err := p.ProfileGemm(profiler.GemmWorkload{M: m, N: n, K: k, DType: tensor.FP16})
	if err != nil {
		return GemmConfig{}, 0, err
	}
	return res.Config, res.Time, nil
}

// ProfileConv is the convolution counterpart of ProfileGemm.
func ProfileConv(dev *Device, s ConvShape) (GemmConfig, float64, error) {
	p := profiler.New(dev, nil)
	p.Measure.NoiseStdDev = 0
	res, err := p.ProfileConv(profiler.ConvWorkload{Shape: s, DType: tensor.FP16})
	if err != nil {
		return GemmConfig{}, 0, err
	}
	return res.Config, res.Time, nil
}
