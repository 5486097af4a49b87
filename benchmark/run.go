package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"bolt"
	"bolt/internal/accuracy"
	"bolt/internal/cutlass"
	"bolt/internal/models"
	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/tensor"
)

// runModel is one compiled module a run workload executes, with its
// prepared inputs and the oracle for their outputs.
type runModel struct {
	name   string
	mod    *bolt.Module
	input  string
	inputs []*bolt.Tensor
	oracle *oracle
}

// runWorkload executes compiled modules from a single caller. One
// operation runs every model once.
type runWorkload struct {
	cfg       config
	dev       *bolt.Device
	models    []runModel
	opsPerRep int
	// gate is the INT8 accuracy gate's outcome and host cost (run_gemm
	// set-up only).
	gate   accuracy.DivergenceReport
	gateMs float64
}

func (w *runWorkload) close() {}

// fillLazyWeights gives the zoo's lazily zeroed parameters (those above
// 1 Mi elements) seeded values, scaled by fan-in so activations keep
// their magnitude. With zero weights the deep layers output zeros and
// RepVGG's classifier ignores its input, so an output check would
// pass on any image.
func fillLazyWeights(g *relay.Graph, seed int64) {
	for _, n := range g.Nodes {
		if n.Op != relay.OpConstant || n.Value.NumElements() <= 1<<20 {
			continue
		}
		fanIn := n.Value.NumElements() / n.Shape[0] // OHWI conv weight
		if len(n.Shape) == 2 {
			fanIn = n.Shape[0] // K×N matrix
		}
		n.Value.FillRandom(seed+int64(n.ID), float32(math.Sqrt(6/float64(fanIn))))
	}
}

// dropSoftmax makes the classifier's logits the graph's output. With
// seeded weights the logits are large and the softmax saturates: it is
// then one-hot, which hides any error, except where two classes nearly
// tie, which turns an FP16 rounding difference into a 4% one. Logits
// compare at the kernels' own precision.
func dropSoftmax(g *relay.Graph) {
	if g.Output.Op == relay.OpSoftmax {
		g.Output = g.Output.Inputs[0]
	}
}

// addModel prepares one model: inputs from the seed, reference outputs
// from the graph as authored, then the compile, then one checked run.
func (w *runWorkload) addModel(name string, g *relay.Graph, inputs []*bolt.Tensor) error {
	o, err := newOracle(w.cfg, name, g, inputs)
	if err != nil {
		return err
	}
	res, err := bolt.Compile(g, w.dev, bolt.Options{Jobs: 2})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	m := runModel{name: name, mod: res.Module, input: g.Inputs[0].Name, inputs: inputs, oracle: o}
	for i, in := range inputs {
		if !o.ok(i, m.mod.Run(map[string]*bolt.Tensor{m.input: in})) {
			return fmt.Errorf("%s: output for input %d is not within %g of the reference", name, i, refTolerance)
		}
	}
	w.models = append(w.models, m)
	return nil
}

// setupRunCNN prepares the paper's inference story on the functional
// executor: ResNet-18 and RepVGG-A0 at 64x64, batch 1.
func setupRunCNN(cfg config) (state, error) {
	w := &runWorkload{cfg: cfg, dev: bolt.T4(), opsPerRep: cfg.count(4)}
	k := 2
	if cfg.smoke {
		k = 1 // a reference pass costs more than the smoke run's operations
	}
	inputs := randomInputs(k, cfg.seed, 1, 3, 64, 64)
	for _, m := range []struct {
		name string
		g    *relay.Graph
	}{
		{"resnet18-64", models.ResNetAt(18, 1, 64)},
		{"repvgg-a0-64", models.RepVGGAt("A0", 1, 64, models.RepVGGOptions{})},
	} {
		fillLazyWeights(m.g, cfg.seed)
		dropSoftmax(m.g)
		if err := w.addModel(m.name, m.g, inputs); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// setupRunGemm prepares the BERT FFN block (8 tokens, FP16): GEMM only,
// no convolution. Set-up also passes it through the INT8 accuracy gate.
func setupRunGemm(cfg config) (state, error) {
	w := &runWorkload{cfg: cfg, dev: bolt.T4(), opsPerRep: cfg.count(32)}
	k := 4
	if cfg.smoke {
		k = 1
	}
	if err := w.addModel("bert-ffn", models.BERTMLP(8, 768, 3072), randomInputs(k, cfg.seed, 8, 768)); err != nil {
		return nil, err
	}
	start := time.Now()
	_, rep, err := accuracy.GatePrecision(models.BERTMLP(8, 768, 3072), tensor.INT8, 0.05, 2, cfg.seed,
		func(g *relay.Graph) (*rt.Module, error) {
			res, err := bolt.Compile(g, w.dev, bolt.Options{Jobs: 2})
			if err != nil {
				return nil, err
			}
			return res.Module, nil
		})
	if err != nil {
		return nil, fmt.Errorf("int8 gate: %w", err)
	}
	w.gate, w.gateMs = rep, time.Since(start).Seconds()*1e3
	return w, nil
}

// rep runs opsPerRep operations; repetition r starts r inputs further
// into the prepared set. Every output is checked.
func (w *runWorkload) rep(r int, rec *recorder) (repResult, error) {
	res := repResult{ops: w.opsPerRep}
	var err error
	res.seconds, res.mallocs, err = measure(func() error {
		for i := 0; i < w.opsPerRep; i++ {
			root := rec.begin("op.run", -1, i)
			opMs, simUs := 0.0, 0.0
			for _, m := range w.models {
				idx := (i + r) % len(m.inputs)
				s := rec.begin("Module.Run", root, i)
				start := time.Now()
				out := m.mod.Run(map[string]*bolt.Tensor{m.input: m.inputs[idx]})
				opMs += time.Since(start).Seconds() * 1e3
				rec.end(s)
				if !m.oracle.ok(idx, out) {
					res.failed++
				}
				simUs += m.mod.Time() * 1e6
			}
			rec.end(root)
			res.opMs = append(res.opMs, opMs)
			res.simOpUs = append(res.simOpUs, simUs)
			res.simSeconds += simUs / 1e6
		}
		return nil
	})
	return res, err
}

func (w *runWorkload) probes(layer map[string]float64, rec *recorder) error {
	runs := sortedCopy(rec.durations("op.run"))
	layer["rt.run_host_ms_p50"] = nearestRank(runs, 50)
	layer["rt.run_host_ms_p90"] = tail(runs, 90)

	var kp kernelProbe
	var throughput, reuse []float64
	var nodes, fused, kernels, launches, templated, unplanned, allocs, bytes float64
	for _, m := range w.models {
		mod := m.mod
		if err := kp.measure(mod, w.dev); err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		throughput = append(throughput, mod.Throughput(m.inputs[0].Shape()[0]))
		reuse = append(reuse, mod.Memory().ReuseFactor)
		nodes += float64(len(mod.Graph.Nodes))
		fused += float64(mod.Graph.CountOp(relay.OpPersistentGemm) + mod.Graph.CountOp(relay.OpPersistentConv))
		kernels += float64(len(mod.Kernels))
		launches += float64(mod.LaunchCount())
		templated += float64(mod.TemplatedKernels())

		in := map[string]*bolt.Tensor{m.input: m.inputs[0]}
		var ms []float64
		for i := 0; i < probeRounds; i++ {
			start := time.Now()
			mod.RunUnplanned(in)
			ms = append(ms, time.Since(start).Seconds()*1e3)
		}
		unplanned += median(ms)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < probeRounds; i++ {
			mod.Run(in)
		}
		runtime.ReadMemStats(&after)
		allocs += float64(after.Mallocs-before.Mallocs) / probeRounds
		bytes += float64(after.TotalAlloc-before.TotalAlloc) / probeRounds
	}
	kp.report(layer)
	layer["cutlass.conv_share_of_run"] = ratio(kp.convMs, layer["rt.run_host_ms_p50"])
	layer["rt.self_host_ms"] = layer["rt.run_host_ms_p50"] - kp.convMs - kp.gemmMs
	layer["rt.run_unplanned_host_ms"] = unplanned
	layer["rt.allocs_per_run"] = allocs
	layer["rt.bytes_per_run"] = bytes
	layer["relay.nodes_after_optimize"] = nodes
	layer["relay.arena_reuse_x"] = geomean(reuse)
	layer["persistent.fused_kernels"] = fused
	layer["codegen.kernels"] = kernels
	layer["codegen.launches"] = launches
	layer["codegen.templated_kernels"] = templated
	layer["codegen.sim_model_img_per_s"] = geomean(throughput)
	if w.gateMs > 0 {
		layer["accuracy.gate_host_ms"] = w.gateMs
		layer["accuracy.int8_divergence"] = w.gate.Divergence
	}
	return nil
}

// probeRounds is how often a direct probe repeats a call; it reports
// the median.
const probeRounds = 5

// kernelProbe sums the host time of a module's GEMM and convolution
// anchors, each timed as a direct call into the cutlass template with
// the module's own weights and a tuned configuration. Activations are
// uniform random, so the GEMM kernel's skip of zero operands, which
// post-ReLU inputs trigger, is not reproduced: the probe is an upper
// bound on the kernel's share of a run.
type kernelProbe struct {
	convMs, gemmMs       float64
	convFlops, gemmFlops float64
}

func (p *kernelProbe) measure(mod *bolt.Module, dev *bolt.Device) error {
	// value is an optional constant operand's tensor (a missing bias).
	value := func(n *relay.Node) *bolt.Tensor {
		if n == nil {
			return nil
		}
		return n.Value
	}
	for i := range mod.Kernels {
		n := mod.Kernels[i].Node
		epi := cutlass.DefaultEpilogue()
		if n.Epilogue != nil {
			epi = *n.Epilogue
		}
		var bias *relay.Node
		if len(n.Inputs) > 2 {
			bias = n.Inputs[2]
		}
		var err error
		switch n.Op {
		case relay.OpConv2D:
			err = p.conv(dev, n.Conv, epi, n.Inputs[1].Value, value(bias))
		case relay.OpDense:
			err = p.gemm(dev, n.Inputs[0].Shape[0], epi, n.Inputs[1].Value, value(bias))
		case relay.OpPersistentConv:
			for _, l := range n.Chain {
				if err == nil {
					err = p.conv(dev, l.Conv, l.Epilogue, l.Weight.Value, value(l.Bias))
				}
			}
		case relay.OpPersistentGemm:
			for _, l := range n.Chain {
				if err == nil {
					err = p.gemm(dev, n.Inputs[0].Shape[0], l.Epilogue, l.Weight.Value, value(l.Bias))
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *kernelProbe) conv(dev *bolt.Device, s cutlass.ConvShape, epi cutlass.Epilogue, w, bias *bolt.Tensor) error {
	cfg, _, err := bolt.ProfileConv(dev, s)
	if err != nil {
		return err
	}
	k := &cutlass.Conv2D{Shape: s, Config: cfg, Epilogue: epi}
	x := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNHWC, s.N, s.H, s.W, s.IC)
	x.FillRandom(1, 1)
	dst := tensor.NewWithLayout(epi.OutDType, tensor.LayoutNHWC, s.N, s.OutH(), s.OutW(), s.OC)
	p.convMs += medianMs(func() { k.RunInto(dst, x, w, bias) })
	p.convFlops += s.FLOPs()
	return nil
}

func (p *kernelProbe) gemm(dev *bolt.Device, m int, epi cutlass.Epilogue, w, bias *bolt.Tensor) error {
	k, n := w.Shape()[0], w.Shape()[1]
	cfg, _, err := bolt.ProfileGemm(dev, m, n, k)
	if err != nil {
		return err
	}
	g := &cutlass.Gemm{Config: cfg, Epilogue: epi}
	a := tensor.New(tensor.FP16, m, k)
	a.FillRandom(1, 1)
	dst := tensor.New(epi.OutDType, m, n)
	p.gemmMs += medianMs(func() { g.RunInto(dst, a, w, bias) })
	p.gemmFlops += 2 * float64(m) * float64(n) * float64(k)
	return nil
}

func (p *kernelProbe) report(layer map[string]float64) {
	layer["cutlass.conv_host_ms"] = p.convMs
	layer["cutlass.gemm_host_ms"] = p.gemmMs
	layer["cutlass.conv_gflops_host"] = ratio(p.convFlops, p.convMs*1e6)
	layer["cutlass.gemm_gflops_host"] = ratio(p.gemmFlops, p.gemmMs*1e6)
}

// medianMs runs f probeRounds times and returns the median host time in
// milliseconds.
func medianMs(f func()) float64 {
	var ms []float64
	for i := 0; i < probeRounds; i++ {
		start := time.Now()
		f()
		ms = append(ms, time.Since(start).Seconds()*1e3)
	}
	return median(ms)
}
