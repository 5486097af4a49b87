// Package codegen lowers an optimized relay graph into a runnable,
// priceable rt.Module — the code-generation stage of paper Figure 3.
//
// Two backends are provided, each as one whole recipe:
//
//   - Build, the paper's system: relay.Optimize, then every anchor is
//     profiled by the light-weight profiler and instantiated as a
//     CUTLASS-style templated kernel (white-box: the module can carry
//     the emitted source); persistent chains lower to b2b kernels;
//     folded layout/pad glue costs no launches.
//   - Baseline, the Ansor-style comparison: the graph gets only what
//     TVM's standard passes give (relay.OptimizeTVM: epilogues fused
//     into the generated kernel, NHWC activations, no persistent
//     fusion, no padding), and anchors are tuned by the opaque
//     evolutionary searcher over SIMT schedules.
//
// Both end in the same lowering: every op lowers by its kind, and the
// backend supplies only an anchor's functional config and the price of
// its launch.
package codegen

import (
	"fmt"

	"bolt/internal/ansor"
	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/persistent"
	"bolt/internal/profiler"
	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/tensor"
	"bolt/internal/tunelog"
)

// Options configures Build.
type Options struct {
	// Profiler measures the candidate kernels; it is required.
	Profiler *profiler.Profiler

	// Log is an optional persistent tuning cache: workloads found in it
	// skip measurement entirely, and freshly profiled workloads are
	// recorded back.
	Log *tunelog.Log

	// Jobs is the profiling pool width. Values < 1 mean 1.
	Jobs int

	// TopK, when > 0, limits guided profiling to the cost model's k
	// best-ranked candidates per workload. The model is Log.Model, so
	// TopK requires Log. Until the model has trained, sweeps stay full.
	TopK int

	// TrustThreshold, when > 0, skips measurement entirely for a
	// workload once the model's held-out rank-correlation confidence
	// reaches it, emitting the predicted-best config as a
	// measurement-free tunelog entry. Like TopK, it requires Log. 0
	// means never skip.
	TrustThreshold float64

	// EmitSource attaches generated CUDA-like source to each kernel.
	EmitSource bool
}

// Build runs the templated recipe of paper Figure 3 on g: graph-level
// optimization (relay.Optimize), the tuning pipeline on opts.Profiler
// (see pipeline.go; the module's Tuning field reports what each stage
// did), lowering at the resolved configs, then the final module build
// (each selected template instantiated and compiled into the runtime
// file) charged to the profiler's clock. That build, not the candidate
// search, is most of Bolt's minutes in Figure 10b.
func Build(g *relay.Graph, dev *gpu.Device, opts Options) (*rt.Module, error) {
	if opts.Profiler == nil {
		return nil, fmt.Errorf("codegen: Build requires a profiler")
	}
	if err := relay.Optimize(g, dev); err != nil {
		return nil, err
	}
	resolved, stats, err := runTuningPipeline(g, dev, opts)
	if err != nil {
		return nil, fmt.Errorf("codegen: tuning pipeline: %w", err)
	}
	m, err := compile(g, dev, boltBackend{dev: dev, resolved: resolved}, opts.EmitSource)
	if err != nil {
		return nil, err
	}
	m.Tuning = stats
	if c := opts.Profiler.Clock(); c != nil {
		c.Advance(gpu.ModuleBuildSeconds(m.TemplatedKernels()))
	}
	return m, nil
}

// Baseline runs the Ansor baseline's recipe on g: the TVM-level graph
// passes (relay.OptimizeTVM), then lowering with each distinct anchor
// workload ("task") tuned once by tuner with a budget of trials
// measured candidates. trials < 1 means 900, the TVM-recommended
// budget. The search is charged to the tuner's own clock.
func Baseline(g *relay.Graph, dev *gpu.Device, tuner *ansor.Tuner, trials int) (*rt.Module, error) {
	if trials < 1 {
		trials = 900
	}
	if err := relay.OptimizeTVM(g); err != nil {
		return nil, err
	}
	return compile(g, dev, &ansorBackend{dev: dev, tuner: tuner, trials: trials, tuned: map[string]ansor.Result{}}, false)
}

// compile lowers a graph the recipe has optimized, through backend b.
// Both recipes run convolutions, biases, batch norms and pools in NHWC:
// a 4-D operand in another layout to one of them is an error.
func compile(g *relay.Graph, dev *gpu.Device, b backend, emitSource bool) (*rt.Module, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	for _, n := range g.Nodes {
		if err := constantWeights(n); err != nil {
			return nil, fmt.Errorf("codegen: %w", err)
		}
		if err := nhwcOperand(n); err != nil {
			return nil, fmt.Errorf("codegen: %w", err)
		}
	}
	c := &compiler{dev: dev, backend: b, emitSource: emitSource}
	c.slots = make(map[int]int, len(g.Nodes))
	for i, n := range g.Nodes {
		c.slots[n.ID] = i
	}
	m := &rt.Module{Graph: g, Device: dev}
	for i, n := range g.Nodes {
		k, err := c.lower(n)
		if err != nil {
			return nil, fmt.Errorf("codegen: lowering %s: %w", n, err)
		}
		k.Slot = i
		m.Kernels = append(m.Kernels, k)
	}
	return m, nil
}

// backend is what the two recipes lower differently: the config a Dense
// or Conv2D node's functional kernel runs at, and the price of its
// launch. Every other op lowers by its kind, the same for both.
type backend interface {
	config(n *relay.Node) (cutlass.GemmConfig, error)
	gemmDesc(n *relay.Node, g *cutlass.Gemm, m, nn, k int) gpu.KernelDesc
	convDesc(n *relay.Node, conv *cutlass.Conv2D) gpu.KernelDesc
}

// boltBackend runs each anchor at the config the tuning pipeline
// resolved for its task, and prices the templated kernel itself.
type boltBackend struct {
	dev      *gpu.Device
	resolved map[tunelog.Key]profiler.Result
}

// config returns the node's resolved config. Every task must have been
// covered by the tuning pipeline; a miss means extraction and lowering
// drifted apart, which must fail loudly rather than silently
// serial-profile with broken accounting.
func (b boltBackend) config(n *relay.Node) (cutlass.GemmConfig, error) {
	key := taskKey(n, b.dev)
	if r, ok := b.resolved[key]; ok {
		return r.Config, nil
	}
	return cutlass.GemmConfig{}, fmt.Errorf("tuning pipeline did not resolve %s", key)
}

func (b boltBackend) gemmDesc(_ *relay.Node, g *cutlass.Gemm, m, nn, k int) gpu.KernelDesc {
	return g.Desc(b.dev, m, nn, k)
}

func (b boltBackend) convDesc(_ *relay.Node, conv *cutlass.Conv2D) gpu.KernelDesc {
	return conv.Desc(b.dev)
}

// ansorBackend prices each anchor at the SIMT schedule the opaque tuner
// found for its workload, tuned once per distinct workload. TVM's own
// operator fusion computes the epilogue inside the generated kernel, so
// only the epilogue's flops are charged on top of the schedule.
// Schedules do not change math, so the functional kernel runs at
// permissiveConfig.
type ansorBackend struct {
	dev    *gpu.Device
	tuner  *ansor.Tuner
	trials int
	tuned  map[string]ansor.Result
}

func (a *ansorBackend) config(*relay.Node) (cutlass.GemmConfig, error) {
	return permissiveConfig(), nil
}

func (a *ansorBackend) gemmDesc(n *relay.Node, g *cutlass.Gemm, m, nn, k int) gpu.KernelDesc {
	key := fmt.Sprintf("gemm_%d_%d_%d", m, nn, k)
	res, ok := a.tuned[key]
	if !ok {
		res = a.tuner.TuneGemm(m, nn, k, a.trials, n.DType)
		a.tuned[key] = res
	}
	desc := res.Schedule.GemmDesc(a.dev, m, nn, k, n.DType)
	desc.FLOPs += g.Epilogue.FLOPsOn(m, nn)
	return desc
}

func (a *ansorBackend) convDesc(n *relay.Node, conv *cutlass.Conv2D) gpu.KernelDesc {
	s := conv.Shape
	m, nn, k := s.ImplicitGemm()
	geo := ansor.ConvGeometry{M: m, N: nn, K: k, ActivationElems: s.N * s.H * s.W * s.IC}
	key := fmt.Sprintf("conv_%d_%d_%d_%d", m, nn, k, s.StrideH)
	res, ok := a.tuned[key]
	if !ok {
		res = a.tuner.TuneConv(geo, a.trials, n.DType)
		a.tuned[key] = res
	}
	desc := res.Schedule.ConvDesc(a.dev, geo, n.DType)
	desc.FLOPs += conv.Epilogue.FLOPsOn(m, nn)
	return desc
}

type compiler struct {
	dev        *gpu.Device
	backend    backend
	emitSource bool
	// slots maps node ID -> dense slot index in the execution
	// environment (the node's topological position).
	slots map[int]int
}

// slot returns the environment slot holding the node's value.
func (c *compiler) slot(n *relay.Node) int { return c.slots[n.ID] }

// biasSlot returns the slot of a Dense or Conv2D node's fused bias, or
// -1 when it has none.
func (c *compiler) biasSlot(n *relay.Node) int {
	if len(n.Inputs) < 3 {
		return -1
	}
	return c.slot(n.Inputs[2])
}

// optValue fetches an optional operand from the environment.
func optValue(env *rt.Env, slot int) *tensor.Tensor {
	if slot < 0 {
		return nil
	}
	return env.Value(slot)
}

func (c *compiler) lower(n *relay.Node) (rt.Kernel, error) {
	switch n.Op {
	case relay.OpInput:
		return freeKernel(n, func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor { return input(env, n) }), nil
	case relay.OpConstant:
		v := n.Value
		return freeKernel(n, func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor { return v }), nil
	case relay.OpDense:
		return c.lowerDense(n)
	case relay.OpConv2D:
		return c.lowerConv(n)
	case relay.OpPersistentGemm, relay.OpPersistentConv:
		return c.lowerPersistent(n)
	case relay.OpBiasAdd:
		x, b := c.slot(n.Inputs[0]), c.slot(n.Inputs[1])
		return launchKernel(n, rt.ElementwiseLikeDesc(kname(n), shapeElems(n), 2, 1, n.DType),
			func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
				return rt.BiasAddInto(dst, env.Value(x), env.Value(b))
			}), nil
	case relay.OpActivation:
		x := c.slot(n.Inputs[0])
		act := n.Act
		return launchKernel(n, rt.ElementwiseLikeDesc(kname(n), shapeElems(n), 1, 1+act.FLOPs(), n.DType),
			func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
				return rt.ActivationInto(dst, env.Value(x), act)
			}), nil
	case relay.OpAdd:
		a, b := c.slot(n.Inputs[0]), c.slot(n.Inputs[1])
		return launchKernel(n, rt.ElementwiseLikeDesc(kname(n), shapeElems(n), 2, 1, n.DType),
			func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
				return rt.AddInto(dst, env.Value(a), env.Value(b))
			}), nil
	case relay.OpBatchNorm:
		x, ga, be := c.slot(n.Inputs[0]), c.slot(n.Inputs[1]), c.slot(n.Inputs[2])
		me, va := c.slot(n.Inputs[3]), c.slot(n.Inputs[4])
		eps := n.Eps
		return launchKernel(n, rt.ElementwiseLikeDesc(kname(n), shapeElems(n), 1, 2, n.DType),
			func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
				return rt.BatchNormInto(dst, env.Value(x), env.Value(ga), env.Value(be), env.Value(me), env.Value(va), eps)
			}), nil
	case relay.OpMaxPool:
		x := c.slot(n.Inputs[0])
		pool := n.Pool
		return launchKernel(n, rt.PoolDesc(kname(n), shapeElems(n), pool.Kernel, n.DType),
			func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
				return rt.MaxPoolInto(dst, env.Value(x), pool)
			}), nil
	case relay.OpGlobalAvgPool:
		x := c.slot(n.Inputs[0])
		inElems := n.Inputs[0].Shape.NumElements()
		desc := rt.ElementwiseLikeDesc(kname(n), shapeElems(n), 1, 1, n.DType)
		desc.GlobalLoadB = float64(inElems * n.DType.Size())
		return launchKernel(n, desc,
			func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
				return rt.GlobalAvgPoolInto(dst, env.Value(x))
			}), nil
	case relay.OpFlatten:
		x := c.slot(n.Inputs[0])
		return freeKernel(n, func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
			return rt.FlattenInto(dst, env.Value(x))
		}), nil
	case relay.OpSoftmax:
		x := c.slot(n.Inputs[0])
		return launchKernel(n, rt.ElementwiseLikeDesc(kname(n), shapeElems(n), 3, 8, n.DType),
			func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
				return rt.SoftmaxInto(dst, env.Value(x))
			}), nil
	case relay.OpLayoutTransform:
		x := c.slot(n.Inputs[0])
		to := n.ToLayout
		exec := func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
			if to == tensor.LayoutNHWC {
				return tensor.ToNHWCInto(dst, env.Value(x))
			}
			return tensor.ToNCHWInto(dst, env.Value(x))
		}
		if n.Folded {
			// Implemented inside the adjacent templated kernel: the
			// permuted store costs no extra launch (paper §3.2.3).
			return freeKernel(n, exec), nil
		}
		return launchKernel(n, rt.ElementwiseLikeDesc(kname(n), shapeElems(n), 1, 0, n.DType), exec), nil
	case relay.OpPadChannels:
		x := c.slot(n.Inputs[0])
		padTo := n.PadTo
		desc := rt.PadDesc(n.Inputs[0].Shape.NumElements(), shapeElems(n), n.DType)
		return launchKernel(n, desc,
			func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
				return tensor.PadChannelsInto(dst, env.Value(x), padTo)
			}), nil
	case relay.OpSliceChannels:
		x := c.slot(n.Inputs[0])
		padTo := n.PadTo
		return freeKernel(n, func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
			return tensor.SliceChannelsInto(dst, env.Value(x), padTo)
		}), nil
	default:
		return rt.Kernel{}, fmt.Errorf("unsupported op %v", n.Op)
	}
}

// input returns the caller's tensor for Input node n. The layout pass
// permutes it by its own layout tag, so a tensor whose shape, or 4-D
// layout, is not the node's would run to a wrong result: it panics,
// naming the input. The dtype is not checked: a precision-cast graph
// takes the caller's FP16 tensors.
func input(env *rt.Env, n *relay.Node) *tensor.Tensor {
	v := env.Input(n.Name)
	if !v.Shape().Equal(n.Shape) || len(n.Shape) == 4 && v.Layout() != n.Layout {
		panic(fmt.Sprintf("codegen: input %q is %v %v, the graph's is %v %v", n.Name, v.Shape(), v.Layout(), n.Shape, n.Layout))
	}
	return v
}

// constantWeights rejects a Dense, Conv2D or persistent chain whose
// weight (or a chain's bias) is not a constant. A templated kernel
// packs its weight tensor at its first launch and keeps the panels
// (cutlass.Gemm), so the tensor must hold the same bytes on every run:
// a computed weight is an arena view whose header a reused ExecState
// passes again with new data, and an input would stay reachable from
// the kernel after its request.
func constantWeights(n *relay.Node) error {
	var operands []*relay.Node
	switch n.Op {
	case relay.OpDense, relay.OpConv2D:
		operands = n.Inputs[1:2]
	case relay.OpPersistentGemm, relay.OpPersistentConv:
		for _, cl := range n.Chain {
			operands = append(operands, cl.Weight)
			if cl.Bias != nil {
				operands = append(operands, cl.Bias)
			}
		}
	}
	for _, o := range operands {
		if o.Op != relay.OpConstant {
			return fmt.Errorf("%s operand %s is not a constant", n.Op, o)
		}
	}
	return nil
}

// nhwcOperand rejects a 4-D activation in any layout but NHWC for the
// lowerings that read channels innermost (a convolution, a bias or
// batch-norm broadcast, a pool): relay.TransformLayout gives them NHWC,
// and an NCHW operand would broadcast or pool the wrong axis without
// any error.
func nhwcOperand(n *relay.Node) error {
	switch n.Op {
	case relay.OpConv2D, relay.OpBiasAdd, relay.OpBatchNorm, relay.OpMaxPool, relay.OpGlobalAvgPool:
		if x := n.Inputs[0]; len(x.Shape) == 4 && x.Layout != tensor.LayoutNHWC {
			return fmt.Errorf("%s reads NHWC, but its operand %s is %v (run relay.TransformLayout first)", n, x, x.Layout)
		}
	}
	return nil
}

func kname(n *relay.Node) string { return fmt.Sprintf("%s_%d", n.Op, n.ID) }

func shapeElems(n *relay.Node) int { return n.Shape.NumElements() }

func freeKernel(n *relay.Node, exec func(*rt.Env, *tensor.Tensor) *tensor.Tensor) rt.Kernel {
	return rt.Kernel{Name: kname(n), Node: n, Launches: 0, Exec: exec}
}

func launchKernel(n *relay.Node, desc gpu.KernelDesc, exec func(*rt.Env, *tensor.Tensor) *tensor.Tensor) rt.Kernel {
	return rt.Kernel{Name: desc.Name, Node: n, Desc: desc, Launches: 1, Exec: exec}
}

// epilogueOf mirrors the relay helper.
func epilogueOf(n *relay.Node) cutlass.Epilogue {
	if n.Epilogue != nil {
		return *n.Epilogue
	}
	e := cutlass.DefaultEpilogue()
	e.OutDType = n.DType
	return e
}

func (c *compiler) lowerDense(n *relay.Node) (rt.Kernel, error) {
	cfg, err := c.backend.config(n)
	if err != nil {
		return rt.Kernel{}, err
	}
	wl := denseWorkload(n)
	g := &cutlass.Gemm{Config: cfg, Epilogue: epilogueOf(n)}
	xs, wv, bs := c.slot(n.Inputs[0]), n.Inputs[1].Value, c.biasSlot(n)
	kern := launchKernel(n, c.backend.gemmDesc(n, g, wl.M, wl.N, wl.K), func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
		return g.RunInto(dst, env.Value(xs), wv, optValue(env, bs))
	})
	if c.emitSource {
		kern.Source = emitGemmSource(g, wl.M, wl.N, wl.K)
	}
	return kern, nil
}

func (c *compiler) lowerConv(n *relay.Node) (rt.Kernel, error) {
	cfg, err := c.backend.config(n)
	if err != nil {
		return rt.Kernel{}, err
	}
	conv := &cutlass.Conv2D{Shape: n.Conv, Config: cfg, Epilogue: epilogueOf(n), FilterScale: n.FilterScale}
	xs, wv, bs := c.slot(n.Inputs[0]), n.Inputs[1].Value, c.biasSlot(n)
	kern := launchKernel(n, c.backend.convDesc(n, conv), func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
		return conv.RunInto(dst, env.Value(xs), wv, optValue(env, bs))
	})
	if c.emitSource {
		kern.Source = emitConvSource(conv)
	}
	return kern, nil
}

// lowerPersistent lowers a persistent chain, possibly rebatched since
// relay fused it, to the kernel persistent.Build picks for it now.
func (c *compiler) lowerPersistent(n *relay.Node) (rt.Kernel, error) {
	layers := make([]persistent.Layer, len(n.Chain))
	operands := make([]*tensor.Tensor, 2*len(n.Chain))
	ws, bs := operands[:len(n.Chain)], operands[len(n.Chain):]
	for i, cl := range n.Chain {
		// Every chain operand is a constant (see constantWeights), bound
		// here so the hot path allocates nothing.
		layers[i], ws[i] = cl.Layer, cl.Weight.Value
		if cl.Bias != nil {
			bs[i] = cl.Bias.Value
		}
	}
	m := n.Inputs[0].Shape[0]
	f, err := persistent.Build(m, layers, n.DType, c.dev)
	if err != nil {
		return rt.Kernel{}, err
	}
	xs := c.slot(n.Inputs[0])
	kern := launchKernel(n, f.Desc(c.dev), func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
		return f.RunInto(dst, env.Value(xs), ws, bs)
	})
	if c.emitSource {
		switch f := f.(type) {
		case *persistent.FusedGemm:
			kern.Source = emitPersistentGemmSource(f, m)
		case *persistent.FusedConv:
			kern.Source = emitPersistentConvSource(f)
		}
	}
	return kern, nil
}

// permissiveConfig is the configuration the baseline's functional
// kernels run at: alignment 1, so every shape launches.
func permissiveConfig() cutlass.GemmConfig {
	return cutlass.GemmConfig{
		TB:     cutlass.Shape3{M: 64, N: 64, K: 32},
		Warp:   cutlass.Shape3{M: 32, N: 32, K: 32},
		Inst:   cutlass.Shape3{M: 16, N: 8, K: 8},
		Stages: 2, SwizzleLog: 1,
		AlignA: 1, AlignB: 1, AlignC: 1,
		Op: gpu.OpClassTensorOp, DType: tensor.FP16,
	}
}
