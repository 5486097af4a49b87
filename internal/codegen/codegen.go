// Package codegen lowers an optimized relay graph into a runnable,
// priceable rt.Module — the BYOC code-generation stage of paper
// Figure 3.
//
// Two backends are provided:
//
//   - Bolt (Options.Profiler): the paper's system. Anchor ops are
//     profiled by the light-weight profiler and instantiated as
//     CUTLASS-style templated kernels (white-box: the module carries
//     the emitted source); persistent chains lower to b2b kernels;
//     folded layout/pad glue costs no launches.
//   - Ansor (Options.AnsorTuner): the baseline. Anchors are tuned by
//     the opaque evolutionary searcher over SIMT schedules; graph-level
//     state is whatever TVM's standard passes give (relay.OptimizeTVM:
//     epilogues fused into the generated kernel, NHWC activations, no
//     persistent fusion, no padding).
//
// Build is the full templated pipeline (graph optimization, profiling,
// code generation and the module-build charge); every templated
// compile goes through it. Compile is the lowering step alone, which
// the Ansor baseline calls directly on its TVM-fused graph.
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

// Options configures compilation. The backend follows from which
// tuner is set: AnsorTuner selects the Ansor baseline, and otherwise
// the Bolt backend runs on Profiler.
type Options struct {
	// Profiler is required for the Bolt backend.
	Profiler *profiler.Profiler

	// Log is an optional persistent tuning cache (Bolt): workloads
	// found in it skip measurement entirely, and freshly profiled
	// workloads are recorded back.
	Log *tunelog.Log

	// Jobs is the profiling pool width (Bolt). Values < 1 mean 1.
	Jobs int

	// TopK, when > 0, limits guided profiling to the cost model's k
	// best-ranked candidates per workload (Bolt). Requires a model
	// source: either the profiler carries one (Profiler.Guide.Model) or
	// Log does. Until the model has trained, sweeps stay full.
	TopK int

	// TrustThreshold, when > 0, skips measurement entirely for a
	// workload once the model's held-out rank-correlation confidence
	// reaches it, emitting the predicted-best config as a
	// measurement-free tunelog entry. Same model-source requirement as
	// TopK. 0 means never skip.
	TrustThreshold float64

	// AnsorTuner, when set, selects the Ansor baseline; AnsorTrials is
	// its measured-candidate budget per distinct workload ("task").
	AnsorTuner  *ansor.Tuner
	AnsorTrials int

	// EmitSource attaches generated CUDA-like source to Bolt kernels.
	EmitSource bool
}

// Build runs the templated recipe of paper Figure 3 on g: graph-level
// optimization (relay.Optimize), then Compile with the Bolt backend
// through opts.Profiler, then the final module build (each selected
// template instantiated and compiled into the runtime file) charged to
// the profiler's clock. That build, not the candidate search, is most
// of Bolt's minutes in Figure 10b. Build is the Bolt recipe only: it
// rejects an AnsorTuner.
func Build(g *relay.Graph, dev *gpu.Device, opts Options) (*rt.Module, error) {
	if opts.AnsorTuner != nil {
		return nil, fmt.Errorf("codegen: Build runs the Bolt backend; call Compile for the Ansor baseline")
	}
	if err := relay.Optimize(g, dev); err != nil {
		return nil, err
	}
	m, err := Compile(g, dev, opts)
	if err != nil {
		return nil, err
	}
	if c := opts.Profiler.Clock(); c != nil {
		c.Advance(gpu.ModuleBuildSeconds(m.TemplatedKernels()))
	}
	return m, nil
}

// Compile lowers the graph. For the Bolt backend the graph should
// already be optimized (Build does that first); for the Ansor baseline
// it should carry the TVM-level passes only (relay.OptimizeTVM). Both
// run their convolutions, biases, batch norms and pools in NHWC: a
// 4-D operand in another layout to one of them is an error.
//
// For the Bolt backend, compilation is a staged pipeline (see
// pipeline.go): workload extraction, dedup + cache lookup, a parallel
// profiling pool, and a lowering pass that never blocks on
// measurement. The module's Tuning field reports what each stage did.
func Compile(g *relay.Graph, dev *gpu.Device, opts Options) (*rt.Module, error) {
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
	c := &compiler{g: g, dev: dev, opts: opts, ansorCache: map[string]ansor.Result{}}
	c.slots = make(map[int]int, len(g.Nodes))
	for i, n := range g.Nodes {
		c.slots[n.ID] = i
	}
	m := &rt.Module{Graph: g, Device: dev}
	if opts.AnsorTuner == nil {
		if opts.Profiler == nil {
			return nil, fmt.Errorf("codegen: the Bolt backend requires a profiler")
		}
		resolved, stats, err := runTuningPipeline(g, dev, opts)
		if err != nil {
			return nil, fmt.Errorf("codegen: tuning pipeline: %w", err)
		}
		c.resolved = resolved
		m.Tuning = stats
	}
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

type compiler struct {
	g          *relay.Graph
	dev        *gpu.Device
	opts       Options
	ansorCache map[string]ansor.Result
	// slots maps node ID -> dense slot index in the execution
	// environment (the node's topological position).
	slots map[int]int
	// resolved maps tuning tasks to their selected configs (stage 4's
	// input; filled by the tuning pipeline for the Bolt backend).
	resolved map[tunelog.Key]profiler.Result
}

// slot returns the environment slot holding the node's value.
func (c *compiler) slot(n *relay.Node) int { return c.slots[n.ID] }

// optSlot returns the node's slot, or -1 for an absent operand (e.g.
// a dense/conv without a fused bias).
func (c *compiler) optSlot(n *relay.Node) int {
	if n == nil {
		return -1
	}
	return c.slot(n)
}

// optValue fetches an optional operand from the environment.
func optValue(env *rt.Env, slot int) *tensor.Tensor {
	if slot < 0 {
		return nil
	}
	return env.Value(slot)
}

// result returns the resolved config for a Dense or Conv2D node. Every
// Bolt task must have been covered by the tuning pipeline; a miss
// means extraction and lowering drifted apart, which must fail loudly
// rather than silently serial-profile with broken accounting.
func (c *compiler) result(n *relay.Node) (profiler.Result, error) {
	key := taskKey(n, c.dev)
	if r, ok := c.resolved[key]; ok {
		return r, nil
	}
	return profiler.Result{}, fmt.Errorf("tuning pipeline did not resolve %s", key)
}

func (c *compiler) lower(n *relay.Node) (rt.Kernel, error) {
	switch n.Op {
	case relay.OpInput:
		name := n.Name
		return freeKernel(n, func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor { return env.Input(name) }), nil
	case relay.OpConstant:
		v := n.Value
		return freeKernel(n, func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor { return v }), nil
	case relay.OpDense:
		return c.lowerDense(n)
	case relay.OpConv2D:
		return c.lowerConv(n)
	case relay.OpPersistentGemm:
		return c.lowerPersistentGemm(n)
	case relay.OpPersistentConv:
		return c.lowerPersistentConv(n)
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
	x, w := n.Inputs[0], n.Inputs[1]
	wl := denseWorkload(n)
	m, nn, k := wl.M, wl.N, wl.K
	epi := epilogueOf(n)
	var bias *relay.Node
	if len(n.Inputs) > 2 {
		bias = n.Inputs[2]
	}

	if c.opts.AnsorTuner != nil {
		return c.lowerAnsorGemm(n, x, w, bias, m, nn, k, epi)
	}

	res, err := c.result(n)
	if err != nil {
		return rt.Kernel{}, err
	}
	g := &cutlass.Gemm{Config: res.Config, Epilogue: epi}
	xs, wv, bs := c.slot(x), w.Value, c.optSlot(bias)
	kern := launchKernel(n, g.Desc(c.dev, m, nn, k), func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
		return g.RunInto(dst, env.Value(xs), wv, optValue(env, bs))
	})
	if c.opts.EmitSource {
		kern.Source = emitGemmSource(g, m, nn, k)
	}
	return kern, nil
}

func (c *compiler) lowerConv(n *relay.Node) (rt.Kernel, error) {
	x, w := n.Inputs[0], n.Inputs[1]
	shape := n.Conv
	epi := epilogueOf(n)
	var bias *relay.Node
	if len(n.Inputs) > 2 {
		bias = n.Inputs[2]
	}

	if c.opts.AnsorTuner != nil {
		return c.lowerAnsorConv(n, x, w, bias, shape, epi)
	}

	res, err := c.result(n)
	if err != nil {
		return rt.Kernel{}, err
	}
	conv := &cutlass.Conv2D{Shape: shape, Config: res.Config, Epilogue: epi, FilterScale: n.FilterScale}
	xs, wv, bs := c.slot(x), w.Value, c.optSlot(bias)
	kern := launchKernel(n, conv.Desc(c.dev), func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
		return conv.RunInto(dst, env.Value(xs), wv, optValue(env, bs))
	})
	if c.opts.EmitSource {
		kern.Source = emitConvSource(conv)
	}
	return kern, nil
}

func (c *compiler) lowerPersistentGemm(n *relay.Node) (rt.Kernel, error) {
	m := n.Inputs[0].Shape[0]
	layers := make([]persistent.GemmLayer, len(n.Chain))
	for i, cl := range n.Chain {
		cfg, ok := relay.ResidenceConfigFor(cl.N, n.DType, c.dev)
		if !ok {
			return rt.Kernel{}, fmt.Errorf("persistent gemm layer %d: residence infeasible", i)
		}
		layers[i] = persistent.GemmLayer{N: cl.N, K: cl.K, Config: cfg, Epilogue: cl.Epilogue}
	}
	f, err := persistent.ChooseGemmResidence(m, layers, c.dev)
	if err != nil {
		return rt.Kernel{}, err
	}
	xs := c.slot(n.Inputs[0])
	ws, bs := chainOperands(n.Chain)
	kern := launchKernel(n, f.Desc(c.dev), func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
		return f.RunInto(dst, env.Value(xs), ws, bs)
	})
	if c.opts.EmitSource {
		kern.Source = emitPersistentGemmSource(f, m)
	}
	return kern, nil
}

// chainOperands returns a persistent chain's weights and biases, bound
// at compile time (every chain operand is a constant, see
// constantWeights) so the hot path allocates nothing.
func chainOperands(chain []relay.ChainLayer) (ws, bs []*tensor.Tensor) {
	ws = make([]*tensor.Tensor, len(chain))
	bs = make([]*tensor.Tensor, len(chain))
	for i, cl := range chain {
		ws[i] = cl.Weight.Value
		if cl.Bias != nil {
			bs[i] = cl.Bias.Value
		}
	}
	return ws, bs
}

func (c *compiler) lowerPersistentConv(n *relay.Node) (rt.Kernel, error) {
	layers := make([]persistent.ConvLayer, len(n.Chain))
	for i, cl := range n.Chain {
		cfg, ok := relay.ResidenceConfigFor(cl.Conv.OC, n.DType, c.dev)
		if !ok {
			return rt.Kernel{}, fmt.Errorf("persistent conv layer %d: residence infeasible", i)
		}
		if cl.Conv.IC%cfg.AlignA != 0 {
			a := relay.AlignFor(cl.Conv.IC)
			if m := cutlass.MaxAlignment(n.DType); a > m {
				a = m
			}
			cfg.AlignA, cfg.AlignB = a, a
		}
		layers[i] = persistent.ConvLayer{Shape: cl.Conv, Config: cfg, Epilogue: cl.Epilogue, FilterScale: cl.FilterScale}
	}
	f, err := persistent.ChooseConvResidence(layers, c.dev)
	if err != nil {
		return rt.Kernel{}, err
	}
	xs := c.slot(n.Inputs[0])
	ws, bs := chainOperands(n.Chain)
	kern := launchKernel(n, f.Desc(c.dev), func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
		return f.RunInto(dst, env.Value(xs), ws, bs)
	})
	if c.opts.EmitSource {
		kern.Source = emitPersistentConvSource(f)
	}
	return kern, nil
}

// lowerAnsorGemm prices a Dense through the baseline tuner. TVM's own
// operator fusion computes the epilogue inside the generated kernel,
// so only the extra flops are charged.
func (c *compiler) lowerAnsorGemm(n *relay.Node, x, w, bias *relay.Node, m, nn, k int, epi cutlass.Epilogue) (rt.Kernel, error) {
	key := fmt.Sprintf("gemm_%d_%d_%d", m, nn, k)
	res, ok := c.ansorCache[key]
	if !ok {
		res = c.opts.AnsorTuner.TuneGemm(m, nn, k, c.trials(), n.DType)
		c.ansorCache[key] = res
	}
	desc := res.Schedule.GemmDesc(c.dev, m, nn, k, n.DType)
	desc.FLOPs += epi.FLOPsOn(m, nn)
	// Schedules do not change math, so the baseline's numerics are the
	// functional kernel's at a permissive alignment.
	g := &cutlass.Gemm{Config: permissiveConfig(), Epilogue: epi}
	xs, wv, bs := c.slot(x), w.Value, c.optSlot(bias)
	return launchKernel(n, desc, func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
		return g.RunInto(dst, env.Value(xs), wv, optValue(env, bs))
	}), nil
}

func (c *compiler) lowerAnsorConv(n *relay.Node, x, w, bias *relay.Node, shape cutlass.ConvShape, epi cutlass.Epilogue) (rt.Kernel, error) {
	m, nn, k := shape.ImplicitGemm()
	key := fmt.Sprintf("conv_%d_%d_%d_%d", m, nn, k, shape.StrideH)
	res, ok := c.ansorCache[key]
	if !ok {
		geo := ansor.ConvGeometry{M: m, N: nn, K: k, ActivationElems: shape.N * shape.H * shape.W * shape.IC}
		res = c.opts.AnsorTuner.TuneConv(geo, c.trials(), n.DType)
		c.ansorCache[key] = res
	}
	geo := ansor.ConvGeometry{M: m, N: nn, K: k, ActivationElems: shape.N * shape.H * shape.W * shape.IC}
	desc := res.Schedule.ConvDesc(c.dev, geo, n.DType)
	desc.FLOPs += epi.FLOPsOn(m, nn)
	// Schedules do not change math, so the baseline's numerics are the
	// functional kernel's at a permissive alignment.
	conv := &cutlass.Conv2D{Shape: shape, Config: permissiveConfig(), Epilogue: epi, FilterScale: n.FilterScale}
	xs, wv, bs := c.slot(x), w.Value, c.optSlot(bias)
	return launchKernel(n, desc, func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
		return conv.RunInto(dst, env.Value(xs), wv, optValue(env, bs))
	}), nil
}

func (c *compiler) trials() int {
	if c.opts.AnsorTrials > 0 {
		return c.opts.AnsorTrials
	}
	return 900
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
