package relay

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"bolt/internal/cutlass"
	"bolt/internal/tensor"
)

// consumersOracle is Consumers as it was before the lists shared one
// backing slice: one append-grown slice per produced node.
func (g *Graph) consumersOracle() map[int][]*Node {
	c := make(map[int][]*Node)
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			c[in.ID] = append(c[in.ID], n)
		}
	}
	return c
}

// foldBatchNormOracle is FoldBatchNorm as it was before the one-pass
// fold: clone the weights, scale the clone in place, re-round it
// through its dtype, and rebuild the consumer map after every fold.
// The tests hold FoldBatchNorm to it bit for bit.
func foldBatchNormOracle(g *Graph) int {
	consumers := g.consumersOracle()
	folded := 0
	for _, n := range g.Nodes {
		if n.Op != OpBatchNorm {
			continue
		}
		conv := n.Inputs[0]
		if conv.Op != OpConv2D || len(consumers[conv.ID]) != 1 {
			continue
		}
		gamma, beta, mean, variance := n.Inputs[1], n.Inputs[2], n.Inputs[3], n.Inputs[4]
		w := conv.Inputs[1]
		if w.Op != OpConstant || gamma.Op != OpConstant || beta.Op != OpConstant ||
			mean.Op != OpConstant || variance.Op != OpConstant {
			continue
		}
		oc := conv.Conv.OC
		scale := make([]float32, oc)
		shift := make([]float32, oc)
		for i := 0; i < oc; i++ {
			s := gamma.Value.Data()[i] / float32(math.Sqrt(float64(variance.Value.Data()[i])+n.Eps))
			scale[i] = s
			shift[i] = beta.Value.Data()[i] - mean.Value.Data()[i]*s
		}
		wNew := w.Value.Clone()
		per := wNew.NumElements() / oc
		for i := 0; i < oc; i++ {
			for j := 0; j < per; j++ {
				wNew.Data()[i*per+j] *= scale[i]
			}
		}
		if wNew.DType() == tensor.INT8 {
			wNew.CalibrateScale()
		} else {
			wNew.Quantize()
		}
		wNode := &Node{ID: g.NewID(), Op: OpConstant, Name: w.Name + "_bnfold",
			Shape: wNew.Shape().Clone(), DType: wNew.DType(), Layout: wNew.Layout(), Value: wNew}
		bdt := n.DType
		if bdt == tensor.INT8 {
			bdt = tensor.FP16
		}
		bias := tensor.FromData(bdt, shift, oc)
		bNode := &Node{ID: g.NewID(), Op: OpConstant, Name: w.Name + "_bnbias",
			Shape: bias.Shape().Clone(), DType: bias.DType(), Layout: bias.Layout(), Value: bias}
		conv.Inputs[1] = wNode
		biasAdd := &Node{ID: g.NewID(), Op: OpBiasAdd, Inputs: []*Node{conv, bNode},
			Shape: n.Shape.Clone(), DType: n.DType, Layout: n.Layout}
		g.insertAfter(conv, wNode, bNode)
		g.replaceNode(n, biasAdd)
		folded++
		consumers = g.consumersOracle()
	}
	g.rebuild()
	return folded
}

// convBNGraph is x -> conv(w) -> BN with seeded, spread-out BN
// statistics: scales from 2^-12 to 2^3, so FP16 products land on
// subnormal halves and below 2^-24 as well as on normal ones.
func convBNGraph(dt tensor.DType, oc, ic, k int, seed int64) (*Graph, *Node) {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	x := b.Input("x", dt, 1, ic, 8, 8)
	wt := tensor.New(tensor.FP32, oc, k, k, ic)
	for i := range wt.Data() {
		wt.Data()[i] = float32(rng.NormFloat64()) * float32(math.Ldexp(1, rng.Intn(16)-14))
	}
	w := b.Constant("w", wt.AsType(dt))
	vec := func(name string, f func() float32) *Node {
		d := make([]float32, oc)
		for i := range d {
			d[i] = f()
		}
		return b.Constant(name, tensor.FromData(tensor.FP32, d, oc))
	}
	gamma := vec("gamma", func() float32 { return float32(math.Ldexp(1+rng.Float64(), rng.Intn(16)-12)) })
	beta := vec("beta", func() float32 { return float32(rng.NormFloat64()) })
	mean := vec("mean", func() float32 { return float32(rng.NormFloat64()) })
	variance := vec("var", func() float32 { return float32(0.25 + 4*rng.Float64()) })
	conv := b.Conv2D(x, w, 1, k/2)
	bn := b.BatchNorm(conv, gamma, beta, mean, variance, 1e-5)
	return b.Build(bn), w
}

func sameBits(a, b *tensor.Tensor) bool {
	if a.DType() != b.DType() || a.Layout() != b.Layout() || !a.Shape().Equal(b.Shape()) ||
		math.Float32bits(a.Scale()) != math.Float32bits(b.Scale()) || len(a.Data()) != len(b.Data()) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// foldedConv returns the convolution and the bias constant a fold left
// on the graph's output.
func foldedConv(t *testing.T, g *Graph) (conv *Node, bias *tensor.Tensor) {
	t.Helper()
	if g.Output.Op != OpBiasAdd || g.Output.Inputs[0].Op != OpConv2D {
		t.Fatalf("graph did not fold: output is %v", g.Output)
	}
	return g.Output.Inputs[0], g.Output.Inputs[1].Value
}

// foldedConvOutputs runs the pass's folded conv (the source weight
// under its FilterScale) and the oracle's (the materialized weight,
// no scale) as plain cutlass kernels over one seeded NHWC input, and
// returns both outputs in FP32, unrounded. A fold that matches the
// oracle gives them the same bytes.
func foldedConvOutputs(got, want *Node, seed int64) (a, b *tensor.Tensor) {
	s := got.Conv
	x := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNHWC, s.N, s.H, s.W, s.IC)
	x.FillRandom(seed, 1)
	cfg := cutlass.GemmConfig{TB: cutlass.Shape3{M: 64, N: 64, K: 32}, Warp: cutlass.Shape3{M: 32, N: 32, K: 32},
		Inst: cutlass.Shape3{M: 16, N: 8, K: 8}, Stages: 2, AlignA: 1, AlignB: 1, AlignC: 1, DType: tensor.FP16}
	epi := cutlass.Epilogue{OutDType: tensor.FP32}
	folded := &cutlass.Conv2D{Shape: s, Config: cfg, Epilogue: epi, FilterScale: got.FilterScale}
	plain := &cutlass.Conv2D{Shape: want.Conv, Config: cfg, Epilogue: epi}
	return folded.RunInto(nil, x, got.Inputs[1].Value, nil), plain.RunInto(nil, x, want.Inputs[1].Value, nil)
}

// TestFoldBatchNormMatchesOracle holds the pack-time fold to the old
// clone, scale, re-round sequence bit for bit: the folded conv's output
// equals a plain conv's over the oracle's materialized weights, for
// every dtype, one and odd channel counts, and filters on both sides of
// the size from which the pack splits over cores, at every partition
// GOMAXPROCS can produce. The conv must keep its source weights, byte
// for byte unchanged.
func TestFoldBatchNormMatchesOracle(t *testing.T) {
	shapes := []struct{ oc, ic, k int }{
		{1, 3, 1},
		{1, 64, 3},
		{7, 5, 3},
		{33, 16, 1},
		{29, 1004, 3}, // 262044 elements over two panels: just below the pack's split
		{29, 1005, 3}, // 262305: just above
		{3, 2432, 3},  // above, but one panel: the pack cannot split
		{257, 128, 3}, // well above, odd
	}
	if lo, hi := 29*1004*9, 29*1005*9; lo >= 1<<18 || hi < 1<<18 {
		t.Fatalf("shapes no longer straddle the pack's split at %d elements", 1<<18)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, dt := range []tensor.DType{tensor.FP16, tensor.FP32, tensor.INT8} {
			for i, s := range shapes {
				seed := int64(100*i + int(dt))
				got, src := convBNGraph(dt, s.oc, s.ic, s.k, seed)
				want, _ := convBNGraph(dt, s.oc, s.ic, s.k, seed)
				before := src.Value.Clone()
				if n, m := FoldBatchNorm(got), foldBatchNormOracle(want); n != 1 || m != 1 {
					t.Fatalf("%v %+v: folded %d, oracle %d, want 1", dt, s, n, m)
				}
				gc, gb := foldedConv(t, got)
				wc, wb := foldedConv(t, want)
				if a, b := foldedConvOutputs(gc, wc, seed); !sameBits(a, b) {
					t.Errorf("procs %d %v %+v: folded conv differs from one over the oracle's weights", procs, dt, s)
				}
				if !sameBits(gb, wb) {
					t.Errorf("procs %d %v %+v: folded bias differs from the oracle's", procs, dt, s)
				}
				if gc.Inputs[1] != src {
					t.Errorf("procs %d %v %+v: the conv no longer reads its source weights", procs, dt, s)
				}
				if !sameBits(src.Value, before) {
					t.Errorf("procs %d %v %+v: the fold wrote to its source weights", procs, dt, s)
				}
			}
		}
	}
}

// TestFoldBatchNormOnSharedWeights is the serving case: Rebatch clones
// of one graph share their weight tensors, and each clone folds on its
// own. Every clone must keep reading the shared source, unchanged, and
// convolve as a plain conv over the oracle's folded weights does.
func TestFoldBatchNormOnSharedWeights(t *testing.T) {
	src, w := convBNGraph(tensor.FP16, 24, 16, 3, 5)
	before := w.Value.Clone()
	for _, batch := range []int{1, 4} {
		v, err := Rebatch(src, batch)
		if err != nil {
			t.Fatal(err)
		}
		if v.Output.Inputs[0].Inputs[1].Value != w.Value {
			t.Fatal("Rebatch no longer shares weights: this test guards nothing")
		}
		want, _ := convBNGraph(tensor.FP16, 24, 16, 3, 5)
		if want, err = Rebatch(want, batch); err != nil {
			t.Fatal(err)
		}
		if FoldBatchNorm(v) != 1 || foldBatchNormOracle(want) != 1 {
			t.Fatal("clone did not fold")
		}
		gc, _ := foldedConv(t, v)
		wc, _ := foldedConv(t, want)
		if gc.Inputs[1].Value != w.Value {
			t.Errorf("batch %d: the folded clone no longer shares its weights", batch)
		}
		if a, b := foldedConvOutputs(gc, wc, int64(batch)); !sameBits(a, b) {
			t.Errorf("batch %d: folded clone differs from a conv over the oracle's weights", batch)
		}
	}
	if !sameBits(w.Value, before) {
		t.Error("folding a clone changed the weights it shares with its source")
	}
}

// TestConsumersListsAreIndependent: the lists share one backing slice,
// so each must be capped at its own length.
func TestConsumersListsAreIndependent(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)))
	c := g.Consumers()
	want := g.consumersOracle()
	if len(c) != len(want) {
		t.Fatalf("%d lists, want %d", len(c), len(want))
	}
	intruder := &Node{ID: -1}
	for id, list := range c {
		if cap(list) != len(list) {
			t.Fatalf("list of node %d has room for %d more: an append would overwrite its neighbour", id, cap(list)-len(list))
		}
		_ = append(list, intruder)
	}
	for id, list := range c {
		if len(list) != len(want[id]) {
			t.Fatalf("node %d: %d consumers, want %d", id, len(list), len(want[id]))
		}
		for i, n := range list {
			if n != want[id][i] {
				t.Fatalf("node %d consumer %d is %v, want %v", id, i, n, want[id][i])
			}
		}
	}
}
