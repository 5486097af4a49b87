// Package models is the model zoo: relay-graph builders for every
// network and workload the paper evaluates — VGG-16/19, ResNet-18/50,
// RepVGG-A0/A1/B0 (deploy mode) and their system-friendly augmented
// variants, the BERT encoder GEMMs of Figures 1/8a, and the
// recommendation-model MLP pairs of Table 1.
//
// All graphs are authored in NCHW FP16 (the PyTorch convention), so
// Bolt's layout-transformation pass has real work to do. Weights are
// deterministic pseudo-random (no trained checkpoints; the performance
// experiments never depend on weight values). A weight is its seed:
// its values are drawn on the first read, so building and compiling a
// model only to price it holds none of them.
package models

import (
	"fmt"

	"bolt/internal/cutlass"
	"bolt/internal/relay"
	"bolt/internal/tensor"
)

// ImageNet input geometry.
const (
	imageSize = 224
	numClass  = 1000
)

// VGG builds VGG-16 or VGG-19 (Simonyan & Zisserman) with BiasAdd+ReLU
// after every conv and the three FC layers.
func VGG(depth, batch int) *relay.Graph { return VGGAt(depth, batch, imageSize) }

// VGGAt builds VGG at a custom input resolution (size must survive the
// five 2x2 pools, i.e. be a positive multiple of 32). Reduced sizes
// make functional-execution tests affordable; performance experiments
// use the ImageNet default.
func VGGAt(depth, batch, size int) *relay.Graph {
	var blocks [][]int
	switch depth {
	case 16:
		blocks = [][]int{{64, 64}, {128, 128}, {256, 256, 256}, {512, 512, 512}, {512, 512, 512}}
	case 19:
		blocks = [][]int{{64, 64}, {128, 128}, {256, 256, 256, 256}, {512, 512, 512, 512}, {512, 512, 512, 512}}
	default:
		panic(fmt.Sprintf("models: no VGG-%d", depth))
	}
	b := relay.NewBuilder()
	x := b.Input("data", tensor.FP16, batch, 3, size, size)
	ic := 3
	li := 0
	for _, stage := range blocks {
		for _, oc := range stage {
			w := b.Weight(fmt.Sprintf("conv%d_w", li), oc, 3, 3, ic)
			x = b.Conv2D(x, w, 1, 1)
			x = b.BiasAdd(x, b.Weight(fmt.Sprintf("conv%d_b", li), oc))
			x = b.Activation(x, cutlass.ActReLU)
			ic = oc
			li++
		}
		x = b.MaxPool(x, 2, 2, 0)
	}
	x = b.Flatten(x) // 512 * 7 * 7 = 25088
	for i, units := range []int{4096, 4096} {
		x = b.Dense(x, b.Weight(fmt.Sprintf("fc%d_w", i), x.Shape[1], units))
		x = b.BiasAdd(x, b.Weight(fmt.Sprintf("fc%d_b", i), units))
		x = b.Activation(x, cutlass.ActReLU)
	}
	x = b.Dense(x, b.Weight("fc2_w", 4096, numClass))
	x = b.BiasAdd(x, b.Weight("fc2_b", numClass))
	return b.Build(b.Softmax(x))
}

// bnParams creates the four inference-mode BN constant vectors with
// benign values (unit variance, small random gamma scatter).
func bnParams(b *relay.Builder, name string, c int) (gamma, beta, mean, variance *relay.Node) {
	ones := make([]float32, c)
	zeros := make([]float32, c)
	vr := make([]float32, c)
	for i := range ones {
		ones[i] = 1
		vr[i] = 1
	}
	gamma = b.Constant(name+"_gamma", tensor.FromData(tensor.FP32, ones, c))
	beta = b.Constant(name+"_beta", tensor.FromData(tensor.FP32, zeros, c))
	mean = b.Constant(name+"_mean", tensor.FromData(tensor.FP32, append([]float32{}, zeros...), c))
	variance = b.Constant(name+"_var", tensor.FromData(tensor.FP32, vr, c))
	return
}

// convBN adds conv + BatchNorm (+ optional ReLU).
func convBN(b *relay.Builder, x *relay.Node, name string, ic, oc, kernel, stride, pad int, relu bool) *relay.Node {
	w := b.Weight(name+"_w", oc, kernel, kernel, ic)
	x = b.Conv2D(x, w, stride, pad)
	ga, be, me, va := bnParams(b, name, oc)
	x = b.BatchNorm(x, ga, be, me, va, 1e-5)
	if relu {
		x = b.Activation(x, cutlass.ActReLU)
	}
	return x
}

// ResNet builds ResNet-18 (basic blocks) or ResNet-50 (bottlenecks).
func ResNet(depth, batch int) *relay.Graph { return ResNetAt(depth, batch, imageSize) }

// ResNetAt builds ResNet at a custom input resolution (the classifier
// adapts via global average pooling).
func ResNetAt(depth, batch, size int) *relay.Graph {
	b := relay.NewBuilder()
	x := b.Input("data", tensor.FP16, batch, 3, size, size)
	x = convBN(b, x, "stem", 3, 64, 7, 2, 3, true)
	x = b.MaxPool(x, 3, 2, 1)

	switch depth {
	case 18:
		chans := []int{64, 128, 256, 512}
		reps := []int{2, 2, 2, 2}
		ic := 64
		for s, c := range chans {
			for r := 0; r < reps[s]; r++ {
				stride := 1
				if r == 0 && s > 0 {
					stride = 2
				}
				x = basicBlock(b, x, fmt.Sprintf("s%db%d", s, r), ic, c, stride)
				ic = c
			}
		}
	case 50:
		chans := []int{64, 128, 256, 512}
		reps := []int{3, 4, 6, 3}
		ic := 64
		for s, c := range chans {
			for r := 0; r < reps[s]; r++ {
				stride := 1
				if r == 0 && s > 0 {
					stride = 2
				}
				x = bottleneck(b, x, fmt.Sprintf("s%db%d", s, r), ic, c, stride)
				ic = c * 4
			}
		}
	default:
		panic(fmt.Sprintf("models: no ResNet-%d", depth))
	}
	x = b.GlobalAvgPool(x)
	x = b.Dense(x, b.Weight("fc_w", x.Shape[1], numClass))
	x = b.BiasAdd(x, b.Weight("fc_b", numClass))
	return b.Build(b.Softmax(x))
}

func basicBlock(b *relay.Builder, x *relay.Node, name string, ic, oc, stride int) *relay.Node {
	identity := x
	y := convBN(b, x, name+"_1", ic, oc, 3, stride, 1, true)
	y = convBN(b, y, name+"_2", oc, oc, 3, 1, 1, false)
	if stride != 1 || ic != oc {
		identity = convBN(b, x, name+"_ds", ic, oc, 1, stride, 0, false)
	}
	return b.Activation(b.Add(y, identity), cutlass.ActReLU)
}

func bottleneck(b *relay.Builder, x *relay.Node, name string, ic, width, stride int) *relay.Node {
	out := width * 4
	identity := x
	y := convBN(b, x, name+"_1", ic, width, 1, 1, 0, true)
	y = convBN(b, y, name+"_2", width, width, 3, stride, 1, true)
	y = convBN(b, y, name+"_3", width, out, 1, 1, 0, false)
	if stride != 1 || ic != out {
		identity = convBN(b, x, name+"_ds", ic, out, 1, stride, 0, false)
	}
	return b.Activation(b.Add(y, identity), cutlass.ActReLU)
}

// RepVGGSpec describes one RepVGG variant's deploy-mode architecture.
type RepVGGSpec struct {
	Name   string
	Blocks []int // blocks per stage (stages 1-4; stage 0 is one layer)
	Width  []int // output channels per stage (5 entries)
}

// RepVGGVariant returns the published A0/A1/B0 geometry (Ding et al.,
// CVPR 2021, deploy mode: every block is a single 3x3 conv + ReLU).
func RepVGGVariant(name string) RepVGGSpec {
	switch name {
	case "A0":
		return RepVGGSpec{Name: name, Blocks: []int{2, 4, 14, 1}, Width: []int{48, 48, 96, 192, 1280}}
	case "A1":
		return RepVGGSpec{Name: name, Blocks: []int{2, 4, 14, 1}, Width: []int{64, 64, 128, 256, 1280}}
	case "B0":
		return RepVGGSpec{Name: name, Blocks: []int{4, 6, 16, 1}, Width: []int{64, 64, 128, 256, 1280}}
	default:
		panic(fmt.Sprintf("models: no RepVGG-%s", name))
	}
}

// RepVGGOptions customizes a build for the system-model codesign study.
type RepVGGOptions struct {
	// Activation replaces ReLU everywhere (Table 4's principle 1).
	Activation cutlass.Activation
	// Deepen1x1 adds a channel-preserving 1x1 conv (+activation) after
	// each 3x3 conv (Table 5's principle 2). The final wide stage is
	// skipped, as in the paper.
	Deepen1x1 bool
	// Deepen1x1Layers limits how many leading 3x3 convs get a 1x1
	// follower (0 = all eligible); the paper's flexible trade-off knob.
	Deepen1x1Layers int
}

// RepVGG builds a deploy-mode RepVGG variant.
func RepVGG(variant string, batch int, opts RepVGGOptions) *relay.Graph {
	return RepVGGAt(variant, batch, imageSize, opts)
}

// RepVGGAt builds a deploy-mode RepVGG variant at a custom input
// resolution.
func RepVGGAt(variant string, batch, size int, opts RepVGGOptions) *relay.Graph {
	spec := RepVGGVariant(variant)
	act := opts.Activation
	if act == cutlass.ActIdentity {
		act = cutlass.ActReLU
	}
	b := relay.NewBuilder()
	x := b.Input("data", tensor.FP16, batch, 3, size, size)

	li := 0
	deepened := 0
	addConv := func(x *relay.Node, ic, oc, stride int, wide bool) *relay.Node {
		w := b.Weight(fmt.Sprintf("l%d_w", li), oc, 3, 3, ic)
		x = b.Conv2D(x, w, stride, 1)
		x = b.BiasAdd(x, b.Weight(fmt.Sprintf("l%d_b", li), oc))
		x = b.Activation(x, act)
		li++
		if opts.Deepen1x1 && !wide && (opts.Deepen1x1Layers == 0 || deepened < opts.Deepen1x1Layers) {
			// System-friendly deepening: 1x1 conv with matched channels,
			// stride 1, no padding — exactly the persistent-fusion shape.
			pw := b.Weight(fmt.Sprintf("l%d_pw", li), oc, 1, 1, oc)
			x = b.Conv2D(x, pw, 1, 0)
			x = b.BiasAdd(x, b.Weight(fmt.Sprintf("l%d_pb", li), oc))
			x = b.Activation(x, act)
			deepened++
		}
		return x
	}

	// Stage 0: one 3x3 stride-2 layer from RGB.
	x = addConv(x, 3, spec.Width[0], 2, false)
	ic := spec.Width[0]
	for s := 0; s < 4; s++ {
		oc := spec.Width[s+1]
		wide := s == 3 // the 1280-channel head stage is never deepened
		for r := 0; r < spec.Blocks[s]; r++ {
			stride := 1
			if r == 0 {
				stride = 2
			}
			x = addConv(x, ic, oc, stride, wide)
			ic = oc
		}
	}
	x = b.GlobalAvgPool(x)
	x = b.Dense(x, b.Weight("fc_w", ic, numClass))
	x = b.BiasAdd(x, b.Weight("fc_b", numClass))
	return b.Build(b.Softmax(x))
}

// BERTMLP builds the BERT encoder FFN block as a servable graph: rows
// of the hidden dimension through the up-projection — whose BiasAdd +
// GELU ride the GEMM's epilogue after fusion — and back down. This is
// the Figure-1 workload in graph form, the served counterpart of the
// standalone BERTGemms kernels below.
func BERTMLP(batch, hidden, ffn int) *relay.Graph {
	b := relay.NewBuilder()
	x := b.Input("tokens", tensor.FP16, batch, hidden)
	x = b.Dense(x, b.Weight("up_w", hidden, ffn))
	x = b.BiasAdd(x, b.Weight("up_b", ffn))
	x = b.Activation(x, cutlass.ActGELU)
	x = b.Dense(x, b.Weight("down_w", ffn, hidden))
	x = b.BiasAdd(x, b.Weight("down_b", hidden))
	return b.Build(x)
}

// BERTGemms returns the encoder GEMM workloads of Figures 1 and 8a for
// the given batch size and sequence length: M = batch*seq rows through
// the attention/FFN projections of BERT-base (hidden 768, FFN 3072).
func BERTGemms(batch, seq int) []struct{ M, N, K int } {
	m := batch * seq
	return []struct{ M, N, K int }{
		{m, 768, 768},  // QKV/output projections
		{m, 3072, 768}, // FFN up
		{m, 768, 3072}, // FFN down
	}
}

// B2BGemmWorkload is one back-to-back GEMM pair from Table 1
// (recommendation models: DCNv2, DLRM).
type B2BGemmWorkload struct {
	M      int
	N0, K0 int
	N1     int
}

// Table1Workloads returns the paper's four persistent-GEMM-fusion
// pairs.
func Table1Workloads() []B2BGemmWorkload {
	return []B2BGemmWorkload{
		{M: 2464, N0: 1, K0: 4, N1: 4},
		{M: 16384, N0: 64, K0: 256, N1: 16},
		{M: 32768, N0: 128, K0: 576, N1: 64},
		{M: 128320, N0: 32, K0: 96, N1: 96},
	}
}

// B2BConvWorkload is one 3x3 + 1x1 pair from Table 2 (RepVGG early
// layers).
type B2BConvWorkload struct {
	First cutlass.ConvShape
	Then  cutlass.ConvShape
}

// Table2Workloads returns the paper's six persistent-Conv-fusion pairs
// (batch 32).
func Table2Workloads() []B2BConvWorkload {
	mk := func(h, ic, oc, stride int) B2BConvWorkload {
		first := cutlass.Conv3x3(32, h, h, ic, oc, stride, 1)
		return B2BConvWorkload{
			First: first,
			Then:  cutlass.Conv1x1(32, first.OutH(), first.OutW(), oc, oc),
		}
	}
	return []B2BConvWorkload{
		mk(224, 3, 48, 2),
		mk(112, 48, 48, 2),
		mk(56, 48, 48, 1),
		mk(224, 3, 64, 2),
		mk(112, 64, 64, 2),
		mk(56, 64, 64, 1),
	}
}

// Table3Workload is one unaligned-channel convolution from Table 3
// (production workloads with IC not divisible by 8).
type Table3Workload struct {
	N, H, W, IC, OC, KH, KW, PadH, PadW int
}

// Shape converts to a ConvShape (stride 1, as in the paper).
func (w Table3Workload) Shape() cutlass.ConvShape {
	return cutlass.ConvShape{N: w.N, H: w.H, W: w.W, IC: w.IC, OC: w.OC,
		KH: w.KH, KW: w.KW, StrideH: 1, StrideW: 1, PadH: w.PadH, PadW: w.PadW}
}

// Table3Workloads returns the paper's six padding benchmarks.
func Table3Workloads() []Table3Workload {
	return []Table3Workload{
		{32, 20, 26, 46, 32, 3, 3, 1, 1},
		{32, 20, 26, 46, 32, 5, 5, 2, 2},
		{128, 14, 19, 46, 32, 5, 7, 0, 0},
		{288, 11, 15, 46, 32, 5, 7, 0, 0},
		{32, 20, 26, 174, 64, 3, 3, 1, 1},
		{32, 20, 26, 174, 64, 5, 5, 2, 2},
	}
}
