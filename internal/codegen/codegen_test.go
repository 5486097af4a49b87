package codegen

import (
	"strings"
	"testing"

	"bolt/internal/ansor"
	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/profiler"
	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/tensor"
)

// smallCNN builds a compact network exercising conv, bias, activation,
// 1x1 follower (persistent-fusion candidate), pooling, dense, softmax.
func smallCNN(batch int) *relay.Graph {
	b := relay.NewBuilder()
	x := b.Input("data", tensor.FP16, batch, 8, 16, 16)
	c := b.Conv2D(x, b.Weight("w0", 16, 3, 3, 8), 1, 1)
	c = b.BiasAdd(c, b.Weight("b0", 16))
	c = b.Activation(c, cutlass.ActReLU)
	c = b.Conv2D(c, b.Weight("w1", 16, 1, 1, 16), 1, 0)
	c = b.BiasAdd(c, b.Weight("b1", 16))
	c = b.Activation(c, cutlass.ActReLU)
	g := b.GlobalAvgPool(c)
	d := b.Dense(g, b.Weight("wfc", 16, 8))
	d = b.BiasAdd(d, b.Weight("bfc", 8))
	return b.Build(b.Softmax(d))
}

func boltCompile(t *testing.T, g *relay.Graph, dev *gpu.Device) *rt.Module {
	t.Helper()
	p := profiler.New(dev, nil)
	p.Measure.NoiseStdDev = 0
	m, err := Build(g, dev, Options{Profiler: p, EmitSource: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func ansorCompile(t *testing.T, g *relay.Graph, dev *gpu.Device, trials int) *rt.Module {
	t.Helper()
	m, err := Baseline(g, dev, ansor.NewTuner(dev, nil, 3), trials)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// lowerOnly runs the lowering both recipes share on g as it stands,
// without a recipe's graph passes, through the baseline's backend.
func lowerOnly(g *relay.Graph, dev *gpu.Device) (*rt.Module, error) {
	return compile(g, dev, &ansorBackend{dev: dev, tuner: newTestTuner(dev), trials: 8, tuned: map[string]ansor.Result{}}, false)
}

func TestBoltCompileAndRun(t *testing.T) {
	dev := gpu.T4()
	g := smallCNN(2)
	m := boltCompile(t, g, dev)

	in := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNCHW, 2, 8, 16, 16)
	in.FillRandom(5, 1)
	out := m.Run(map[string]*tensor.Tensor{"data": in})
	if !out.Shape().Equal(tensor.Shape{2, 8}) {
		t.Fatalf("output shape %v", out.Shape())
	}
	// Softmax rows sum to 1.
	for i := 0; i < 2; i++ {
		sum := float32(0)
		for j := 0; j < 8; j++ {
			sum += out.At(i, j)
		}
		if sum < 0.98 || sum > 1.02 {
			t.Errorf("softmax row %d sums to %g", i, sum)
		}
	}
	if m.Time() <= 0 {
		t.Error("module time must be positive")
	}
	if m.Throughput(2) <= 0 {
		t.Error("throughput must be positive")
	}
}

func TestOptimizedNumericsMatchUnoptimized(t *testing.T) {
	// The whole pass pipeline (layout transform, epilogue fusion,
	// persistent fusion, padding) must not change results beyond FP16
	// noise: compile the same network both ways and compare outputs.
	dev := gpu.T4()
	in := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNCHW, 2, 8, 16, 16)
	in.FillRandom(6, 1)

	opt := boltCompile(t, smallCNN(2), dev)
	ref := ansorCompile(t, smallCNN(2), dev, 8)

	a := opt.Run(map[string]*tensor.Tensor{"data": in})
	b := ref.Run(map[string]*tensor.Tensor{"data": in})
	if !tensor.AllClose(a, b, 5e-2, 1e-2) {
		t.Errorf("optimized output deviates: max diff %g", tensor.MaxAbsDiff(a, b))
	}
}

func TestBoltFasterAndFewerLaunches(t *testing.T) {
	dev := gpu.T4()
	bolt := boltCompile(t, smallCNN(32), dev)
	baseline := ansorCompile(t, smallCNN(32), dev, 32)
	if bolt.Time() >= baseline.Time() {
		t.Errorf("bolt %.3gus not faster than ansor %.3gus", bolt.Time()*1e6, baseline.Time()*1e6)
	}
	if bolt.LaunchCount() >= baseline.LaunchCount() {
		t.Errorf("bolt launches %d not fewer than baseline %d (fusion should eliminate launches)",
			bolt.LaunchCount(), baseline.LaunchCount())
	}
}

func TestPersistentChainLowered(t *testing.T) {
	dev := gpu.T4()
	g := smallCNN(32)
	m := boltCompile(t, g, dev)
	found := false
	for i := range m.Kernels {
		if m.Kernels[i].Node.Op == relay.OpPersistentConv {
			found = true
			if m.Kernels[i].Launches != 1 {
				t.Error("persistent chain must be one launch")
			}
			if !strings.Contains(m.Kernels[i].Source, "B2bImplicitGemmConvolution") {
				t.Error("persistent conv source not emitted")
			}
		}
	}
	if !found {
		t.Error("3x3+1x1 chain was not lowered to a persistent kernel")
	}
}

func TestEmittedSource(t *testing.T) {
	dev := gpu.T4()
	m := boltCompile(t, smallCNN(2), dev)
	src := m.Sources()
	for _, want := range []string{
		"cutlass::gemm::device::Gemm<",
		"cutlass::half_t",
		"GemmShape<",
		"Sm75",
		"LinearCombination",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted source missing %q", want)
		}
	}
	// Fused ReLU epilogues appear as epilogue functors.
	if !strings.Contains(src, "ReLu") {
		t.Error("fused ReLU epilogue not visible in source")
	}
}

func TestReportAndKernelAccounting(t *testing.T) {
	dev := gpu.T4()
	m := boltCompile(t, smallCNN(4), dev)
	rows := m.Report()
	if len(rows) == 0 {
		t.Fatal("empty report")
	}
	totalPct := 0.0
	for i, r := range rows {
		totalPct += r.Percent
		if i > 0 && r.Time > rows[i-1].Time {
			t.Error("report not sorted by time")
		}
	}
	if totalPct < 99 || totalPct > 101 {
		t.Errorf("percentages sum to %.1f", totalPct)
	}
}

func TestBatchNormGraphCompiles(t *testing.T) {
	dev := gpu.T4()
	b := relay.NewBuilder()
	x := b.Input("data", tensor.FP16, 2, 8, 8, 8)
	w := b.Weight("w", 8, 3, 3, 8)
	c := b.Conv2D(x, w, 1, 1)
	ones := []float32{1, 1, 1, 1, 1, 1, 1, 1}
	zeros := make([]float32, 8)
	ga := b.Constant("g", tensor.FromData(tensor.FP32, append([]float32{}, ones...), 8))
	be := b.Constant("b", tensor.FromData(tensor.FP32, zeros, 8))
	me := b.Constant("m", tensor.FromData(tensor.FP32, append([]float32{}, zeros...), 8))
	va := b.Constant("v", tensor.FromData(tensor.FP32, append([]float32{}, ones...), 8))
	c = b.BatchNorm(c, ga, be, me, va, 1e-5)
	g := b.Build(b.Activation(c, cutlass.ActReLU))

	// Unoptimized: BN executes as its own kernel (in NHWC, as every
	// fallback op does).
	if err := relay.TransformLayout(g); err != nil {
		t.Fatal(err)
	}
	mRef, err := lowerOnly(g, dev)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNCHW, 2, 8, 8, 8)
	in.FillRandom(9, 1)
	refOut := mRef.Run(map[string]*tensor.Tensor{"data": in})

	// Optimized: BN folds away.
	g2 := smallBNGraph()
	mOpt := boltCompile(t, g2, dev)
	optOut := mOpt.Run(map[string]*tensor.Tensor{"data": in})
	if !tensor.AllClose(optOut, refOut, 5e-2, 1e-2) {
		t.Errorf("BN folding changed numerics: %g", tensor.MaxAbsDiff(optOut, refOut))
	}
}

// smallBNGraph rebuilds the same graph (builders are single-use).
func smallBNGraph() *relay.Graph {
	b := relay.NewBuilder()
	x := b.Input("data", tensor.FP16, 2, 8, 8, 8)
	w := b.Weight("w", 8, 3, 3, 8)
	c := b.Conv2D(x, w, 1, 1)
	ones := []float32{1, 1, 1, 1, 1, 1, 1, 1}
	zeros := make([]float32, 8)
	ga := b.Constant("g", tensor.FromData(tensor.FP32, append([]float32{}, ones...), 8))
	be := b.Constant("b", tensor.FromData(tensor.FP32, zeros, 8))
	me := b.Constant("m", tensor.FromData(tensor.FP32, append([]float32{}, zeros...), 8))
	va := b.Constant("v", tensor.FromData(tensor.FP32, append([]float32{}, ones...), 8))
	c = b.BatchNorm(c, ga, be, me, va, 1e-5)
	return b.Build(b.Activation(c, cutlass.ActReLU))
}

func TestUnalignedConvGetsPadded(t *testing.T) {
	dev := gpu.T4()
	b := relay.NewBuilder()
	x := b.Input("data", tensor.FP16, 4, 46, 10, 13) // IC=46 unaligned
	c := b.Conv2D(x, b.Weight("w", 32, 3, 3, 46), 1, 1)
	g := b.Build(c)
	m := boltCompile(t, g, dev)
	foundPad := false
	for i := range m.Kernels {
		n := m.Kernels[i].Node
		if n.Op == relay.OpPadChannels {
			foundPad = true
			if m.Kernels[i].Launches != 1 {
				t.Error("pad kernel must cost a launch (Table 3 overhead)")
			}
		}
		if n.Op == relay.OpConv2D && n.Conv.IC != 48 {
			t.Errorf("conv IC %d, want padded 48", n.Conv.IC)
		}
	}
	if !foundPad {
		t.Error("no pad kernel for unaligned conv")
	}
	// Functional check: padded pipeline equals direct computation.
	in := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNCHW, 4, 46, 10, 13)
	in.FillRandom(10, 1)
	out := m.Run(map[string]*tensor.Tensor{"data": in})
	if !out.Shape().Equal(tensor.Shape{4, 32, 10, 13}) {
		t.Errorf("padded conv output shape %v", out.Shape())
	}
}

// newTestTuner builds a small deterministic baseline tuner.
func newTestTuner(dev *gpu.Device) *ansor.Tuner { return ansor.NewTuner(dev, nil, 17) }

func TestCompileErrorPaths(t *testing.T) {
	dev := gpu.T4()
	// A graph with an op no backend implements (constructed directly).
	bad := &relay.Node{ID: 0, Op: relay.OpKind(999), Shape: tensor.Shape{1}, DType: tensor.FP16}
	g := &relay.Graph{Nodes: []*relay.Node{bad}, Output: bad}
	if _, err := lowerOnly(g, dev); err == nil {
		t.Error("unsupported op must fail compilation")
	}
	// An invalid graph (dangling input) must be rejected up front.
	orphan := &relay.Node{ID: 1, Op: relay.OpInput, Name: "x", Shape: tensor.Shape{1}, DType: tensor.FP16}
	use := &relay.Node{ID: 2, Op: relay.OpActivation, Inputs: []*relay.Node{orphan}, Shape: tensor.Shape{1}, DType: tensor.FP16}
	g2 := &relay.Graph{Nodes: []*relay.Node{use}, Output: use} // orphan missing from Nodes
	if _, err := lowerOnly(g2, dev); err == nil {
		t.Error("topologically invalid graph must fail compilation")
	}
	// An NHWC-only lowering handed an NCHW activation (the layout pass
	// never ran) fails, naming the node, rather than pool the wrong axis.
	b := relay.NewBuilder()
	pool := b.MaxPool(b.Input("data", tensor.FP16, 1, 8, 4, 4), 2, 2, 0)
	_, err := lowerOnly(b.Build(pool), dev)
	if err == nil || !strings.Contains(err.Error(), pool.String()) || !strings.Contains(err.Error(), "NCHW") {
		t.Errorf("a max-pool of an NCHW operand compiled (err %v), want an error naming %s", err, pool)
	}
}

func TestSliceChannelsExecution(t *testing.T) {
	// OC padding inserts a folded slice; the executed pipeline must
	// produce the logical (unpadded) channel count.
	dev := gpu.T4()
	b := relay.NewBuilder()
	x := b.Input("data", tensor.FP16, 2, 16, 6, 6)
	c := b.Conv2D(x, b.Weight("w", 30, 3, 3, 16), 1, 1) // OC=30 -> padded to 32 + slice
	g := b.Build(c)
	m := boltCompile(t, g, dev)
	in := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNCHW, 2, 16, 6, 6)
	in.FillRandom(3, 1)
	out := m.Run(map[string]*tensor.Tensor{"data": in})
	if !out.Shape().Equal(tensor.Shape{2, 30, 6, 6}) {
		t.Fatalf("output shape %v, want logical OC=30", out.Shape())
	}
}

// A templated kernel keeps its weight packed from the first launch, so
// a weight computed at run time (here relu of an input) must be refused
// at compile time by both backends rather than read stale on a second
// run of a reused state.
func TestComputedWeightRejected(t *testing.T) {
	dev := gpu.T4()
	graphs := map[string]func() *relay.Graph{
		"dense": func() *relay.Graph {
			b := relay.NewBuilder()
			x := b.Input("x", tensor.FP16, 8, 32)
			y := b.Activation(b.Input("y", tensor.FP16, 32, 16), cutlass.ActReLU)
			return b.Build(b.Dense(x, y))
		},
		"conv": func() *relay.Graph {
			b := relay.NewBuilder()
			x := b.Input("x", tensor.FP16, 1, 8, 6, 6)
			w := b.Activation(b.Input("w", tensor.FP16, 16, 3, 3, 8), cutlass.ActReLU)
			return b.Build(b.Conv2D(x, w, 1, 1))
		},
	}
	for name, build := range graphs {
		_, err := Build(build(), dev, Options{Profiler: profiler.New(dev, nil)})
		if err == nil || !strings.Contains(err.Error(), "not a constant") {
			t.Errorf("%s, bolt: computed weight compiled (err %v)", name, err)
		}
		_, err = Baseline(build(), dev, newTestTuner(dev), 4)
		if err == nil || !strings.Contains(err.Error(), "not a constant") {
			t.Errorf("%s, ansor: computed weight compiled (err %v)", name, err)
		}
	}
}
