package relay

import (
	"fmt"
	"testing"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

func TestBuilderShapeInference(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", tensor.FP16, 32, 3, 224, 224)
	if x.Layout != tensor.LayoutNCHW {
		t.Error("4-D input should default to NCHW")
	}
	w := b.Weight("w0", 64, 7, 7, 3)
	c := b.Conv2D(x, w, 2, 3)
	if !c.Shape.Equal(tensor.Shape{32, 64, 112, 112}) {
		t.Errorf("conv output shape %v", c.Shape)
	}
	p := b.MaxPool(c, 3, 2, 1)
	if !p.Shape.Equal(tensor.Shape{32, 64, 56, 56}) {
		t.Errorf("pool output shape %v", p.Shape)
	}
	gap := b.GlobalAvgPool(p)
	if !gap.Shape.Equal(tensor.Shape{32, 64}) {
		t.Errorf("gap shape %v", gap.Shape)
	}
	fc := b.Dense(gap, b.Weight("wfc", 64, 1000))
	if !fc.Shape.Equal(tensor.Shape{32, 1000}) {
		t.Errorf("dense shape %v", fc.Shape)
	}
	sm := b.Softmax(fc)
	g := b.Build(sm)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Output != sm || len(g.Inputs) != 1 {
		t.Error("graph wiring wrong")
	}
}

func TestBuilderPanicsOnMismatch(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	b := NewBuilder()
	x := b.Input("x", tensor.FP16, 8, 16)
	expectPanic("dense K mismatch", func() { b.Dense(x, b.Weight("w", 8, 4)) })
	x4 := b.Input("x4", tensor.FP16, 1, 3, 8, 8)
	expectPanic("conv channel mismatch", func() { b.Conv2D(x4, b.Weight("w", 8, 3, 3, 5), 1, 1) })
	expectPanic("bias length", func() { b.BiasAdd(x, b.Weight("b", 7)) })
	y := b.Input("y", tensor.FP16, 8, 8)
	expectPanic("add shape", func() { b.Add(x, y) })
}

func TestDeadNodeElimination(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", tensor.FP16, 4, 8)
	_ = b.Dense(x, b.Weight("dead", 8, 8)) // unused branch
	live := b.Dense(x, b.Weight("live", 8, 16))
	g := b.Build(live)
	for _, n := range g.Nodes {
		if n.Op == OpConstant && n.Name == "dead" {
			t.Error("dead constant not eliminated")
		}
	}
	if g.CountOp(OpDense) != 1 {
		t.Errorf("dead dense not eliminated: %d dense nodes", g.CountOp(OpDense))
	}
}

func TestFuseEpilogueBiasAct(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", tensor.FP16, 32, 64)
	d := b.Dense(x, b.Weight("w", 64, 128))
	d = b.BiasAdd(d, b.Weight("b", 128))
	d = b.Activation(d, cutlass.ActGELU)
	g := b.Build(d)

	n := FuseEpilogue(g)
	if n != 2 {
		t.Errorf("fused %d patterns, want 2 (bias + act)", n)
	}
	if g.CountOp(OpBiasAdd) != 0 || g.CountOp(OpActivation) != 0 {
		t.Error("bias/activation nodes should be absorbed")
	}
	dense := g.Output
	if dense.Op != OpDense {
		t.Fatalf("output is %v, want dense", dense.Op)
	}
	if dense.Epilogue == nil || !dense.Epilogue.BiasVector || dense.Epilogue.Act != cutlass.ActGELU {
		t.Errorf("epilogue not composed: %+v", dense.Epilogue)
	}
	if len(dense.Inputs) != 3 {
		t.Errorf("dense should now carry the bias input: %d inputs", len(dense.Inputs))
	}
}

func TestFuseEpilogueStopsAtFanout(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", tensor.FP16, 32, 64)
	d := b.Dense(x, b.Weight("w", 64, 64))
	a1 := b.Activation(d, cutlass.ActReLU)
	a2 := b.Activation(d, cutlass.ActSigmoid)
	g := b.Build(b.Add(a1, a2))
	if n := FuseEpilogue(g); n != 0 {
		t.Errorf("fused %d through a fan-out, want 0", n)
	}
}

func TestFuseEpilogueActOnly(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", tensor.FP16, 1, 8, 8, 16)
	x.Layout = tensor.LayoutNHWC // pretend already NHWC
	c := b.Conv2D(x, b.Weight("w", 16, 3, 3, 16), 1, 1)
	g := b.Build(b.Activation(c, cutlass.ActHardswish))
	if n := FuseEpilogue(g); n != 1 {
		t.Errorf("fused %d, want 1", n)
	}
	if g.Output.Op != OpConv2D || g.Output.Epilogue.Act != cutlass.ActHardswish {
		t.Error("activation not fused into conv")
	}
	if g.Output.Epilogue.BiasVector {
		t.Error("no bias should be attached")
	}
}

// TestFoldBatchNorm folds a two-channel conv + BN by hand: the conv
// keeps its weights and carries scale = gamma/sqrt(var) as its
// FilterScale, the BN becomes a BiasAdd of beta - mean*scale, and the
// conv convolves as a plain one over the oracle's folded weights.
func TestFoldBatchNorm(t *testing.T) {
	build := func() (*Graph, *Node) {
		b := NewBuilder()
		x := b.Input("x", tensor.FP16, 1, 2, 4, 4)
		w := b.Weight("w", 2, 1, 1, 2)
		c := b.Conv2D(x, w, 1, 0)
		gamma := b.Constant("gamma", tensor.FromData(tensor.FP32, []float32{2, 0.5}, 2))
		beta := b.Constant("beta", tensor.FromData(tensor.FP32, []float32{1, -1}, 2))
		mean := b.Constant("mean", tensor.FromData(tensor.FP32, []float32{0.5, 0.25}, 2))
		variance := b.Constant("var", tensor.FromData(tensor.FP32, []float32{4, 1}, 2))
		return b.Build(b.BatchNorm(c, gamma, beta, mean, variance, 0)), w
	}
	g, w := build()
	origW := w.Value.Clone()
	if n := FoldBatchNorm(g); n != 1 {
		t.Fatalf("folded %d BNs, want 1", n)
	}
	if g.CountOp(OpBatchNorm) != 0 {
		t.Error("BN node should be gone")
	}
	if g.Output.Op != OpBiasAdd {
		t.Fatalf("output is %v, want bias_add", g.Output.Op)
	}
	conv := g.Output.Inputs[0]
	if conv.Inputs[1] != w || !sameBits(w.Value, origW) {
		t.Error("the conv must keep its source weights, unchanged")
	}
	// scale = gamma/sqrt(var) = [1, 0.5]
	if sc := conv.FilterScale; len(sc) != 2 || sc[0] != 1 || sc[1] != 0.5 {
		t.Errorf("filter scale = %v, want [1 0.5]", sc)
	}
	// shift = beta - mean*scale = [1-0.5, -1-0.125] = [0.5, -1.125]
	bias := g.Output.Inputs[1].Value
	if !close16(bias.Data()[0], 0.5) || !close16(bias.Data()[1], -1.125) {
		t.Errorf("bias = %v, want [0.5, -1.125]", bias.Data())
	}
	want, _ := build()
	foldBatchNormOracle(want)
	if a, b := foldedConvOutputs(conv, want.Output.Inputs[0], 1); !sameBits(a, b) {
		t.Error("folded conv differs from a conv over the oracle's weights")
	}
}

func close16(a, b float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 0.01
}

func TestFusePersistentDenseChain(t *testing.T) {
	d := gpu.T4()
	b := NewBuilder()
	x := b.Input("x", tensor.FP16, 16384, 256)
	h := b.Dense(x, b.Weight("w0", 256, 64))
	h = b.BiasAdd(h, b.Weight("b0", 64))
	h = b.Activation(h, cutlass.ActReLU)
	h = b.Dense(h, b.Weight("w1", 64, 16))
	h = b.BiasAdd(h, b.Weight("b1", 16))
	h = b.Activation(h, cutlass.ActReLU)
	g := b.Build(h)

	FuseEpilogue(g)
	if n := FusePersistent(g, d); n != 1 {
		t.Fatalf("created %d persistent chains, want 1", n)
	}
	if g.CountOp(OpDense) != 0 || g.CountOp(OpPersistentGemm) != 1 {
		t.Error("dense ops should be replaced by one persistent node")
	}
	p := g.Output
	if p.Op != OpPersistentGemm || len(p.Chain) != 2 {
		t.Fatalf("persistent node malformed: %v chain %d", p.Op, len(p.Chain))
	}
	if p.Chain[0].N != 64 || p.Chain[1].N != 16 || p.Chain[1].K != 64 {
		t.Errorf("chain dims wrong: %+v", p.Chain)
	}
	if p.Chain[0].Bias == nil || p.Chain[1].Bias == nil {
		t.Error("fused biases lost")
	}
	if !p.Shape.Equal(tensor.Shape{16384, 16}) {
		t.Errorf("persistent output shape %v", p.Shape)
	}
}

func TestFusePersistentRejectsLargeN(t *testing.T) {
	d := gpu.T4()
	b := NewBuilder()
	// N=3072: threadblock residence cannot hold (tile would not fit);
	// the pass must leave the GEMMs unfused.
	x := b.Input("x", tensor.FP16, 1280, 768)
	h := b.Dense(x, b.Weight("w0", 768, 3072))
	h = b.Activation(h, cutlass.ActReLU)
	h = b.Dense(h, b.Weight("w1", 3072, 768))
	g := b.Build(h)
	FuseEpilogue(g)
	if n := FusePersistent(g, d); n != 0 {
		t.Errorf("created %d chains for compute-bound large-N GEMMs, want 0", n)
	}
	if g.CountOp(OpDense) != 2 {
		t.Error("dense nodes should survive")
	}
}

func TestFusePersistentConvChain(t *testing.T) {
	d := gpu.T4()
	b := NewBuilder()
	x := b.Input("x", tensor.FP16, 32, 48, 56, 56) // NCHW
	c1 := b.Conv2D(x, b.Weight("w0", 48, 3, 3, 48), 1, 1)
	c1 = b.BiasAdd(c1, b.Weight("b0", 48))
	c1 = b.Activation(c1, cutlass.ActReLU)
	c2 := b.Conv2D(c1, b.Weight("w1", 48, 1, 1, 48), 1, 0)
	c2 = b.BiasAdd(c2, b.Weight("b1", 48))
	c2 = b.Activation(c2, cutlass.ActReLU)
	g := b.Build(c2)

	FuseEpilogue(g)
	if err := TransformLayout(g); err != nil {
		t.Fatal(err)
	}
	if n := FusePersistent(g, d); n != 1 {
		t.Fatalf("created %d conv chains, want 1", n)
	}
	if g.CountOp(OpPersistentConv) != 1 || g.CountOp(OpConv2D) != 0 {
		t.Error("convs should be fused into one persistent node")
	}
}

func TestFusePersistentConvRejects3x3Follower(t *testing.T) {
	d := gpu.T4()
	b := NewBuilder()
	x := b.Input("x", tensor.FP16, 32, 48, 56, 56)
	c1 := b.Conv2D(x, b.Weight("w0", 48, 3, 3, 48), 1, 1)
	c1 = b.Activation(c1, cutlass.ActReLU)
	c2 := b.Conv2D(c1, b.Weight("w1", 48, 3, 3, 48), 1, 1) // 3x3: violates residence
	g := b.Build(c2)
	FuseEpilogue(g)
	TransformLayout(g)
	if n := FusePersistent(g, d); n != 0 {
		t.Errorf("3x3 follower fused (%d chains), residence should forbid it", n)
	}
}

func TestTransformLayout(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", tensor.FP16, 2, 3, 8, 8)
	c := b.Conv2D(x, b.Weight("w", 16, 3, 3, 3), 1, 1)
	g := b.Build(c)
	if err := TransformLayout(g); err != nil {
		t.Fatal(err)
	}
	// Input stays NCHW; a folded transform feeds the conv; conv output
	// is NHWC; a folded transform restores NCHW at the output.
	if x.Layout != tensor.LayoutNCHW {
		t.Error("input layout must not change")
	}
	if g.CountOp(OpLayoutTransform) != 2 {
		t.Errorf("%d layout transforms, want 2", g.CountOp(OpLayoutTransform))
	}
	if g.Output.Op != OpLayoutTransform || g.Output.Layout != tensor.LayoutNCHW {
		t.Error("output should be transformed back to NCHW")
	}
	var conv *Node
	for _, n := range g.Nodes {
		if n.Op == OpConv2D {
			conv = n
		}
	}
	if conv.Layout != tensor.LayoutNHWC || !conv.Shape.Equal(tensor.Shape{2, 8, 8, 16}) {
		t.Errorf("conv not converted: %v %v", conv.Layout, conv.Shape)
	}
	for _, n := range g.Nodes {
		if n.Op == OpLayoutTransform && !n.Folded {
			t.Error("layout transforms must be folded into adjacent kernels")
		}
	}
}

// TransformLayout gives a Flatten and a 4-D Softmax their operand in
// NCHW through one folded transform each, which costs no launch, and
// a second run of the pass changes nothing.
func TestTransformLayoutFoldsReaderTransforms(t *testing.T) {
	for _, tc := range []struct {
		name string
		head func(b *Builder, c *Node) *Node
	}{
		{"flatten", func(b *Builder, c *Node) *Node {
			return b.Dense(b.Flatten(c), b.Weight("wfc", 16*4*4, 10))
		}},
		{"softmax", func(b *Builder, c *Node) *Node { return b.Softmax(c) }},
	} {
		b := NewBuilder()
		x := b.Input("data", tensor.FP16, 2, 8, 4, 4)
		g := b.Build(tc.head(b, b.Conv2D(x, b.Weight("w", 16, 3, 3, 8), 1, 1)))
		if err := TransformLayout(g); err != nil {
			t.Fatal(err)
		}
		count := func() string {
			var s string
			for _, n := range g.Nodes {
				if n.Op == OpLayoutTransform {
					s += fmt.Sprintf(" %s(%v->%v)", n.Name, n.Inputs[0].Layout, n.ToLayout)
					if !n.Folded {
						t.Errorf("%s: transform %s is not folded", tc.name, n.Name)
					}
				}
			}
			return s
		}
		// The input's transform to NHWC, and the reader's to NCHW.
		const want = " layout_in(NCHW->NHWC) layout_to_NCHW(NHWC->NCHW)"
		if got := count(); got != want {
			t.Errorf("%s: transforms%s, want%s", tc.name, got, want)
		}
		if err := TransformLayout(g); err != nil {
			t.Fatal(err)
		}
		if got := count(); got != want {
			t.Errorf("%s: a second pass leaves transforms%s, want%s", tc.name, got, want)
		}
	}
}

func TestPadChannels(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", tensor.FP16, 32, 46, 20, 26) // IC=46: unaligned
	c := b.Conv2D(x, b.Weight("w", 32, 3, 3, 46), 1, 1)
	g := b.Build(c)
	TransformLayout(g)
	if n := PadChannels(g); n != 1 {
		t.Fatalf("padded %d convs, want 1", n)
	}
	if g.CountOp(OpPadChannels) != 1 {
		t.Error("pad op missing")
	}
	var conv *Node
	for _, n := range g.Nodes {
		if n.Op == OpConv2D {
			conv = n
		}
	}
	if conv.Conv.IC != 48 {
		t.Errorf("conv IC = %d, want 48", conv.Conv.IC)
	}
	if !conv.Inputs[1].Shape.Equal(tensor.Shape{32, 3, 3, 48}) {
		t.Errorf("weight not padded: %v", conv.Inputs[1].Shape)
	}
	// Padded weight values: original region preserved, pad region zero.
	w := conv.Inputs[1].Value
	if w.At(0, 0, 0, 47) != 0 {
		t.Error("weight pad region nonzero")
	}
}

func TestPadChannelsSkipsAlignedAndFirstLayer(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", tensor.FP16, 1, 3, 8, 8) // IC=3: first layer, skip
	c := b.Conv2D(x, b.Weight("w", 64, 3, 3, 3), 1, 1)
	c2 := b.Conv2D(c, b.Weight("w2", 64, 3, 3, 64), 1, 1) // aligned
	g := b.Build(c2)
	TransformLayout(g)
	if n := PadChannels(g); n != 0 {
		t.Errorf("padded %d convs, want 0", n)
	}
}

func TestPadOutputChannels(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", tensor.FP16, 4, 16, 10, 10)
	c := b.Conv2D(x, b.Weight("w", 30, 3, 3, 16), 1, 1) // OC=30 unaligned
	g := b.Build(c)
	TransformLayout(g)
	if n := PadChannels(g); n != 1 {
		t.Fatalf("padded %d convs, want 1", n)
	}
	if g.CountOp(OpSliceChannels) != 1 {
		t.Error("slice op missing after OC padding")
	}
	var conv *Node
	for _, n := range g.Nodes {
		if n.Op == OpConv2D {
			conv = n
		}
	}
	if conv.Conv.OC != 32 {
		t.Errorf("conv OC = %d, want 32", conv.Conv.OC)
	}
}

func TestOptimizePipelineOnResNetBlock(t *testing.T) {
	d := gpu.T4()
	b := NewBuilder()
	x := b.Input("x", tensor.FP16, 8, 64, 56, 56)
	newBN := func(c int) (*Node, *Node, *Node, *Node) {
		ones := make([]float32, c)
		zeros := make([]float32, c)
		vr := make([]float32, c)
		for i := range ones {
			ones[i] = 1
			vr[i] = 1
		}
		return b.Constant("g", tensor.FromData(tensor.FP32, ones, c)),
			b.Constant("be", tensor.FromData(tensor.FP32, zeros, c)),
			b.Constant("m", tensor.FromData(tensor.FP32, append([]float32{}, zeros...), c)),
			b.Constant("v", tensor.FromData(tensor.FP32, vr, c))
	}
	c1 := b.Conv2D(x, b.Weight("w1", 64, 3, 3, 64), 1, 1)
	ga, be, me, va := newBN(64)
	c1 = b.BatchNorm(c1, ga, be, me, va, 1e-5)
	c1 = b.Activation(c1, cutlass.ActReLU)
	c2 := b.Conv2D(c1, b.Weight("w2", 64, 3, 3, 64), 1, 1)
	ga2, be2, me2, va2 := newBN(64)
	c2 = b.BatchNorm(c2, ga2, be2, me2, va2, 1e-5)
	sum := b.Add(c2, x)
	out := b.Activation(sum, cutlass.ActReLU)
	g := b.Build(out)

	if err := Optimize(g, d); err != nil {
		t.Fatal(err)
	}
	if g.CountOp(OpBatchNorm) != 0 {
		t.Error("BNs should be folded")
	}
	// Both convs keep bias epilogues; first one also gets the ReLU.
	for _, n := range g.Nodes {
		if n.Op == OpConv2D && n.Epilogue == nil {
			t.Errorf("conv %s missing fused epilogue", n)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
