package relay_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"bolt/internal/ansor"
	"bolt/internal/codegen"
	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/models"
	"bolt/internal/profiler"
	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/tensor"
)

// zooGraphs builds the model zoo at a small input, where the graphs
// have their full structure and building them takes milliseconds.
func zooGraphs() map[string]func() *relay.Graph {
	return map[string]func() *relay.Graph{
		"resnet18":  func() *relay.Graph { return models.ResNetAt(18, 1, 32) },
		"resnet50":  func() *relay.Graph { return models.ResNetAt(50, 1, 32) },
		"vgg16":     func() *relay.Graph { return models.VGGAt(16, 1, 32) },
		"repvgg-a0": func() *relay.Graph { return models.RepVGGAt("A0", 1, 32, models.RepVGGOptions{}) },
	}
}

func sameConsumers(t *testing.T, name string, g *relay.Graph) {
	t.Helper()
	got, want := g.Consumers(), relay.ConsumersOracle(g)
	if len(got) != len(want) {
		t.Fatalf("%s: %d consumer lists, want %d", name, len(got), len(want))
	}
	for id, list := range want {
		if len(got[id]) != len(list) {
			t.Fatalf("%s: node %d has %d consumers, want %d", name, id, len(got[id]), len(list))
		}
		for i, n := range list {
			if got[id][i] != n {
				t.Fatalf("%s: node %d consumer %d is %v, want %v", name, id, i, got[id][i], n)
			}
		}
	}
}

// TestConsumersOnZoo compares Consumers with its old implementation on
// every zoo graph, as authored and after the pass pipeline.
func TestConsumersOnZoo(t *testing.T) {
	for name, build := range zooGraphs() {
		g := build()
		sameConsumers(t, name, g)
		if err := relay.Optimize(g, gpu.T4()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameConsumers(t, name+" optimized", g)
	}
}

// TestFuseEpilogueOnZoo fuses every zoo graph, as authored and with
// its BatchNorms folded, with the pass and with its old implementation:
// same count, node list, epilogues and inputs.
func TestFuseEpilogueOnZoo(t *testing.T) {
	graphs := zooGraphs()
	graphs["repvgg-a0-aug"] = func() *relay.Graph {
		return models.RepVGGAt("A0", 1, 32, models.RepVGGOptions{Deepen1x1: true})
	}
	graphs["bert-mlp"] = func() *relay.Graph { return models.BERTMLP(8, 64, 256) }
	for name, build := range graphs {
		for _, fold := range []bool{false, true} {
			got, want := build(), build()
			if fold {
				relay.FoldBatchNorm(got)
				relay.FoldBatchNorm(want)
			}
			n, m := relay.FuseEpilogue(got), relay.FuseEpilogueOracle(want)
			if n != m || n == 0 {
				t.Fatalf("%s (folded %v): fused %d, the old pass %d", name, fold, n, m)
			}
			relay.SameFusion(t, name, got, want)
		}
	}
}

// TestFoldBatchNormOnZoo folds every zoo graph with the pass and with
// its old implementation: same number of folds, same node list but for
// the weights the old pass materialized, the other constants bit for
// bit, and every folded conv, run over its source weights and
// FilterScale, gives the bytes of a plain conv over the old pass's
// weights.
func TestFoldBatchNormOnZoo(t *testing.T) {
	for name, build := range zooGraphs() {
		got, want := build(), build()
		n, m := relay.FoldBatchNorm(got), relay.FoldBatchNormOracle(want)
		if n != m {
			t.Fatalf("%s: folded %d BatchNorms, the old pass %d", name, n, m)
		}
		if strings.HasPrefix(name, "resnet") && n == 0 {
			t.Fatalf("%s: nothing folded", name)
		}
		if len(got.Nodes) != len(want.Nodes) {
			t.Fatalf("%s: %d nodes after the fold, want %d", name, len(got.Nodes), len(want.Nodes))
		}
		convs := 0
		for i, a := range got.Nodes {
			b := want.Nodes[i]
			if a.Op != b.Op || len(a.Inputs) != len(b.Inputs) {
				t.Fatalf("%s: node %d is %v %q, want %v %q", name, i, a, a.Name, b, b.Name)
			}
			switch {
			case a.Op == relay.OpConstant && strings.HasSuffix(b.Name, "_bnfold"):
				if a.Name+"_bnfold" != b.Name {
					t.Fatalf("%s: node %d is %q, want the source of %q", name, i, a.Name, b.Name)
				}
			case a.Op == relay.OpConstant:
				if a.Name != b.Name || !relay.SameBits(a.Value, b.Value) {
					t.Fatalf("%s: constant %q differs from the old pass's %q", name, a.Name, b.Name)
				}
			case a.Op == relay.OpConv2D:
				if (a.FilterScale != nil) != strings.HasSuffix(b.Inputs[1].Name, "_bnfold") {
					t.Fatalf("%s: conv %d folded by one pass only", name, i)
				}
				if ga, wa := relay.FoldedConvOutputs(a, b, int64(i)); !relay.SameBits(ga, wa) {
					t.Fatalf("%s: conv %d differs from a conv over the old pass's weights", name, i)
				}
				convs++
			}
		}
		if convs == 0 {
			t.Fatalf("%s: no conv compared", name)
		}
	}
}

// foldNet is conv+BN+ReLU layers whose BN statistics spread the
// folded scales over 2^-6..2^2 (the zoo's unit statistics fold to a
// scale that rounds away on FP16 weights): a 3x3 conv and a 1x1
// follower, which fuse into a persistent chain, then a 3x3 conv with
// 12 output channels, which PadChannels pads to 16.
func foldNet() *relay.Graph {
	rng := rand.New(rand.NewSource(9))
	b := relay.NewBuilder()
	x := b.Input("data", tensor.FP16, 2, 8, 16, 16)
	vec := func(name string, oc int, f func() float32) *relay.Node {
		d := make([]float32, oc)
		for i := range d {
			d[i] = f()
		}
		return b.Constant(name, tensor.FromData(tensor.FP32, d, oc))
	}
	for i, l := range []struct{ ic, oc, k int }{{8, 16, 3}, {16, 16, 1}, {16, 12, 3}} {
		name := fmt.Sprintf("c%d", i)
		x = b.Conv2D(x, b.Weight(name+"_w", l.oc, l.k, l.k, l.ic), 1, l.k/2)
		x = b.BatchNorm(x,
			vec(name+"_gamma", l.oc, func() float32 { return float32(math.Ldexp(1+rng.Float64(), rng.Intn(8)-6)) }),
			vec(name+"_beta", l.oc, func() float32 { return float32(rng.NormFloat64()) }),
			vec(name+"_mean", l.oc, func() float32 { return float32(rng.NormFloat64() / 4) }),
			vec(name+"_var", l.oc, func() float32 { return float32(0.25 + rng.Float64()) }), 1e-5)
		x = b.Activation(x, cutlass.ActReLU)
	}
	return b.Build(x)
}

// TestFoldedModulesMatchOracle compiles foldNet, whose folded convs
// take every lowering (a templated conv, one padded along OC, a
// persistent chain, and the baseline's conv), and runs it against the
// same network folded by the old pass, which materialized the weights:
// the outputs have the same bytes.
func TestFoldedModulesMatchOracle(t *testing.T) {
	dev := gpu.T4()
	in := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNCHW, 2, 8, 16, 16)
	in.FillRandom(4, 1)
	bolt := func(fold func(*relay.Graph) int) *rt.Module {
		g := foldNet()
		fold(g)
		m, err := codegen.Build(g, dev, codegen.Options{Profiler: profiler.New(dev, nil)})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	baseline := func(fold func(*relay.Graph) int) *rt.Module {
		g := foldNet()
		fold(g) // Baseline's own fold then finds no BatchNorm left
		m, err := codegen.Baseline(g, dev, ansor.NewTuner(dev, nil, 3), 8)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for name, compile := range map[string]func(func(*relay.Graph) int) *rt.Module{"bolt": bolt, "baseline": baseline} {
		got, want := compile(relay.FoldBatchNorm), compile(relay.FoldBatchNormOracle)
		if name == "bolt" {
			chains, padded := 0, 0
			for _, n := range got.Graph.Nodes {
				if n.Op == relay.OpPersistentConv {
					chains++
				}
				if n.Op == relay.OpSliceChannels {
					padded++
				}
			}
			if chains != 1 || padded != 1 {
				t.Fatalf("bolt: %d persistent chains and %d OC pads, want 1 and 1: the case guards nothing", chains, padded)
			}
		}
		a := got.Run(map[string]*tensor.Tensor{"data": in})
		b := want.Run(map[string]*tensor.Tensor{"data": in})
		if !relay.SameBits(a, b) {
			t.Errorf("%s: folded module differs from the old pass's (max diff %g)", name, tensor.MaxAbsDiff(a, b))
		}
	}
}

// BenchmarkFoldBatchNorm folds ResNet-50 at ImageNet resolution; the
// pass consumes its graph, so each iteration rebuilds one outside the
// timer. MB/s is the weight bytes (float32 in memory) of the folded
// convs per second.
func BenchmarkFoldBatchNorm(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := models.ResNet(50, 1)
		b.StartTimer()
		if relay.FoldBatchNorm(g) == 0 {
			b.Fatal("nothing folded")
		}
		if i == 0 {
			b.StopTimer()
			var folded int64
			for _, n := range g.Nodes {
				if n.Op == relay.OpConv2D && n.FilterScale != nil {
					folded += int64(4 * n.Inputs[1].Value.NumElements())
				}
			}
			b.SetBytes(folded)
			b.StartTimer()
		}
	}
}
