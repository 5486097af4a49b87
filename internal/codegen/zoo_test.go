package codegen

import (
	"math"
	"testing"

	"bolt/internal/ansor"
	"bolt/internal/gpu"
	"bolt/internal/models"
	"bolt/internal/profiler"
	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/tensor"
)

// compileZoo compiles a zoo model through the full Bolt pipeline.
func compileZoo(t *testing.T, g *relay.Graph) *rt.Module {
	t.Helper()
	dev := gpu.T4()
	p := profiler.New(dev, nil)
	p.Measure.NoiseStdDev = 0
	m, err := Build(g, dev, Options{Profiler: p})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ansorCompileZoo compiles through the baseline tuner with a tiny
// trial budget (the functional path is what matters here).
func ansorCompileZoo(t *testing.T, g *relay.Graph, dev *gpu.Device) *rt.Module {
	t.Helper()
	m, err := Baseline(g, dev, ansor.NewTuner(dev, nil, 5), 4)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestZooCompiles is the integration sweep: every model in the zoo
// must optimize, profile, and compile, producing a module with sane
// accounting.
func TestZooCompiles(t *testing.T) {
	cases := []struct {
		name  string
		build func() *relay.Graph
		// minLaunches sanity-checks that fusion did not collapse the
		// model into nothing, maxLaunches that fusion happened at all.
		minLaunches, maxLaunches int
	}{
		{"VGG-16", func() *relay.Graph { return models.VGG(16, 8) }, 15, 30},
		{"ResNet-18", func() *relay.Graph { return models.ResNet(18, 8) }, 25, 50},
		{"ResNet-50", func() *relay.Graph { return models.ResNet(50, 8) }, 50, 100},
		{"RepVGG-A0", func() *relay.Graph { return models.RepVGG("A0", 8, models.RepVGGOptions{}) }, 20, 30},
		{"RepVGGAug-A0", func() *relay.Graph {
			return models.RepVGG("A0", 8, models.RepVGGOptions{Deepen1x1: true})
		}, 20, 35},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := compileZoo(t, c.build())
			if tm := m.Time(); tm <= 0 || tm > 1 {
				t.Errorf("modeled time %g implausible", tm)
			}
			l := m.LaunchCount()
			if l < c.minLaunches || l > c.maxLaunches {
				t.Errorf("%d launches outside [%d, %d]", l, c.minLaunches, c.maxLaunches)
			}
			// Every launched kernel must have a priceable descriptor.
			for i := range m.Kernels {
				k := &m.Kernels[i]
				if k.Launches > 0 && m.Device.KernelTime(k.Desc) <= 0 {
					t.Errorf("kernel %s has non-positive time", k.Name)
				}
			}
		})
	}
}

// TestRepVGGAugFusesPairs: the deepened model's 3x3+1x1 pairs must all
// become persistent kernels — this is the mechanism behind Table 5's
// modest speed cost.
func TestRepVGGAugFusesPairs(t *testing.T) {
	g := models.RepVGG("A0", 8, models.RepVGGOptions{Deepen1x1: true})
	conv3x3 := 0
	for _, n := range g.Nodes {
		if n.Op == relay.OpConv2D && n.Conv.KH == 3 {
			conv3x3++
		}
	}
	m := compileZoo(t, g)
	persistentKernels := 0
	looseOneByOne := 0
	for i := range m.Kernels {
		switch m.Kernels[i].Node.Op {
		case relay.OpPersistentConv:
			persistentKernels++
		case relay.OpConv2D:
			if m.Kernels[i].Node.Conv.KH == 1 {
				looseOneByOne++
			}
		}
	}
	// 21 of the 22 3x3 convs gain a 1x1 follower; every pair for which
	// fusion is beneficial becomes a persistent kernel. Require the
	// vast majority to fuse.
	if persistentKernels < 15 {
		t.Errorf("only %d persistent conv kernels (of ~21 pairs)", persistentKernels)
	}
	if looseOneByOne > 6 {
		t.Errorf("%d unfused 1x1 convs remain", looseOneByOne)
	}
	_ = conv3x3
}

// TestResNetDownsampleNotFused: ResNet's 1x1 downsample convs have
// stride 2 and feed residual adds (fan-out), so persistent fusion must
// leave them alone.
func TestResNetDownsampleNotFused(t *testing.T) {
	g := models.ResNet(18, 8)
	m := compileZoo(t, g)
	for i := range m.Kernels {
		n := m.Kernels[i].Node
		if n.Op == relay.OpPersistentConv {
			for _, cl := range n.Chain[1:] {
				if cl.Conv.StrideH != 1 {
					t.Errorf("strided conv fused into a chain: %+v", cl.Conv)
				}
			}
		}
	}
}

// TestBaselineZooCompiles runs the Ansor path over a couple of models.
func TestBaselineZooCompiles(t *testing.T) {
	dev := gpu.T4()
	for _, build := range []func() *relay.Graph{
		func() *relay.Graph { return models.ResNet(18, 8) },
		func() *relay.Graph { return models.RepVGG("A0", 8, models.RepVGGOptions{}) },
	} {
		m, err := Baseline(build(), dev, newTestTuner(dev), 16)
		if err != nil {
			t.Fatal(err)
		}
		if m.Time() <= 0 {
			t.Error("baseline module time must be positive")
		}
	}
}

// smallZoo is every zoo model at 32x32, where functional execution
// stays affordable, and VGG-16 at 64x64: there its Flatten reads a 2x2
// activation, which the layout pass must hand it in NCHW order (at
// 32x32 the activation is 1x1, where both orders are one).
var smallZoo = []struct {
	name        string
	batch, size int
	build       func() *relay.Graph
}{
	{"VGG-16", 2, 32, func() *relay.Graph { return models.VGGAt(16, 2, 32) }},
	{"VGG-16@64", 1, 64, func() *relay.Graph { return models.VGGAt(16, 1, 64) }},
	{"ResNet-18", 2, 32, func() *relay.Graph { return models.ResNetAt(18, 2, 32) }},
	{"ResNet-50", 1, 32, func() *relay.Graph { return models.ResNetAt(50, 1, 32) }},
	{"RepVGG-A0", 2, 32, func() *relay.Graph { return models.RepVGGAt("A0", 2, 32, models.RepVGGOptions{}) }},
	{"RepVGGAug-A0", 2, 32, func() *relay.Graph {
		return models.RepVGGAt("A0", 2, 32, models.RepVGGOptions{Deepen1x1: true})
	}},
}

// smallInput is a seeded size x size image batch.
func smallInput(batch, size int, seed int64) *tensor.Tensor {
	in := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNCHW, batch, 3, size, size)
	in.FillRandom(seed, 1)
	return in
}

// logitsOf is the zoo model c without its softmax: a saturated softmax
// hides the logits.
func logitsOf(build func() *relay.Graph) *relay.Graph {
	g := build()
	if g.Output.Op == relay.OpSoftmax {
		g.Output = g.Output.Inputs[0]
	}
	return g
}

// TestZooLogitsSeeTheInput: for every zoo model two different images
// give different, finite logits. A model whose weights are zero from
// some layer on outputs its classifier bias whatever the image.
func TestZooLogitsSeeTheInput(t *testing.T) {
	for _, c := range smallZoo {
		t.Run(c.name, func(t *testing.T) {
			m := compileZoo(t, logitsOf(c.build))
			a := m.Run(map[string]*tensor.Tensor{"data": smallInput(c.batch, c.size, 42)}).Clone()
			b := m.Run(map[string]*tensor.Tensor{"data": smallInput(c.batch, c.size, 43)})
			for _, v := range append(a.Data(), b.Data()...) {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("logit %g is not finite", v)
				}
			}
			if d := tensor.MaxAbsDiff(a, b); d == 0 {
				t.Fatal("two different images give the same logits")
			}
		})
	}
}

// TestZooPlannedExecutorGolden is the planned executor's oracle sweep:
// for every zoo model (at a reduced resolution so functional execution
// stays affordable) the arena-planned Run must be bit-identical to the
// clone-based executor — on the first call, and again on a second call
// that reuses the recycled arena. The memory report must show the
// planner genuinely beating the naive sum of intermediates.
func TestZooPlannedExecutorGolden(t *testing.T) {
	for _, c := range smallZoo {
		t.Run(c.name, func(t *testing.T) {
			m := compileZoo(t, c.build())
			if m.Memory().ArenaBuffers == 0 {
				t.Fatal("compiled module plans no arena")
			}
			inputs := map[string]*tensor.Tensor{"data": smallInput(c.batch, c.size, 42)}

			ref := m.RunUnplanned(inputs)
			first := m.Run(inputs).Clone() // view into the arena: clone before rerunning
			if d := tensor.MaxAbsDiff(first, ref); d != 0 {
				t.Errorf("planned output deviates from clone-based executor: max diff %g", d)
			}
			second := m.Run(inputs)
			if d := tensor.MaxAbsDiff(second, first); d != 0 {
				t.Errorf("second arena-reusing run deviates: max diff %g (stale arena state?)", d)
			}

			mem := m.Memory()
			if mem.PlannedArenaBytes >= mem.NaiveActivationBytes {
				t.Errorf("planned arena %d not below naive sum %d", mem.PlannedArenaBytes, mem.NaiveActivationBytes)
			}
			if mem.PlannedArenaBytes < mem.PeakActivationBytes {
				t.Errorf("planned arena %d below peak single intermediate %d (impossible)",
					mem.PlannedArenaBytes, mem.PeakActivationBytes)
			}
			if mem.ReuseFactor <= 1 {
				t.Errorf("reuse factor %.2f, want > 1", mem.ReuseFactor)
			}
		})
	}
}

// TestZooBoltMatchesBaseline: for every zoo model Bolt's module and
// the baseline's compute the same logits, bit for bit. The two share
// the TVM-level passes (relay.OptimizeTVM) and one functional kernel
// per op; Bolt's padding adds zero channels and its persistent chains
// round each intermediate as the unfused store does, so neither moves a
// value.
func TestZooBoltMatchesBaseline(t *testing.T) {
	dev := gpu.T4()
	for _, c := range smallZoo {
		t.Run(c.name, func(t *testing.T) {
			inputs := map[string]*tensor.Tensor{"data": smallInput(c.batch, c.size, 42)}
			bolt := compileZoo(t, logitsOf(c.build)).Run(inputs).Clone()
			base := ansorCompileZoo(t, logitsOf(c.build), dev).Run(inputs)
			if d := tensor.MaxAbsDiff(bolt, base); d != 0 {
				t.Errorf("max |bolt - baseline| = %g", d)
			}
		})
	}
}

// TestBaselinePlannedExecutorGolden covers the Ansor fallback path
// (SIMT reference kernels) with the same oracle.
func TestBaselinePlannedExecutorGolden(t *testing.T) {
	dev := gpu.T4()
	m := ansorCompileZoo(t, models.ResNetAt(18, 1, 32), dev)
	in := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNCHW, 1, 3, 32, 32)
	in.FillRandom(43, 1)
	inputs := map[string]*tensor.Tensor{"data": in}
	ref := m.RunUnplanned(inputs)
	got := m.Run(inputs)
	if d := tensor.MaxAbsDiff(got, ref); d != 0 {
		t.Errorf("baseline planned output deviates: max diff %g", d)
	}
}

// TestPlannedRunAllocsReduction locks in the hot-path win: the planned
// executor must allocate less than half of what the clone-based one
// does per Run. AllocsPerRun pins GOMAXPROCS to 1, so the measurement
// counts tensor allocations, not scheduler noise.
func TestPlannedRunAllocsReduction(t *testing.T) {
	m := compileZoo(t, models.ResNetAt(18, 2, 32))
	in := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNCHW, 2, 3, 32, 32)
	in.FillRandom(44, 1)
	inputs := map[string]*tensor.Tensor{"data": in}
	m.Run(inputs) // materialize the arena before measuring

	planned := testing.AllocsPerRun(3, func() { m.Run(inputs) })
	clone := testing.AllocsPerRun(3, func() { m.RunUnplanned(inputs) })
	if planned > clone/2 {
		t.Errorf("planned Run allocs/op = %.0f, clone-based = %.0f: want >= 50%% reduction", planned, clone)
	}
	t.Logf("allocs/op: planned %.0f vs clone-based %.0f (%.1fx)", planned, clone, clone/planned)
}
