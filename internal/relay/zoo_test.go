package relay_test

import (
	"strings"
	"testing"

	"bolt/internal/gpu"
	"bolt/internal/models"
	"bolt/internal/relay"
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

// TestFoldBatchNormOnZoo folds every zoo graph with the pass and with
// its old implementation: same number of folds, same node list, same
// constants bit for bit.
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
		for i, a := range got.Nodes {
			b := want.Nodes[i]
			if a.ID != b.ID || a.Op != b.Op || a.Name != b.Name || len(a.Inputs) != len(b.Inputs) {
				t.Fatalf("%s: node %d is %v %q, want %v %q", name, i, a, a.Name, b, b.Name)
			}
			if a.Op != relay.OpConstant {
				continue
			}
			if !relay.SameBits(a.Value, b.Value) {
				t.Fatalf("%s: constant %q differs from the old pass's", name, a.Name)
			}
		}
	}
}

// BenchmarkFoldBatchNorm folds ResNet-50 at ImageNet resolution; the
// pass consumes its graph, so each iteration rebuilds one outside the
// timer. MB/s is folded weight bytes (float32 in memory) per second.
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
				if n.Op == relay.OpConstant && strings.HasSuffix(n.Name, "_bnfold") {
					folded += int64(4 * n.Value.NumElements())
				}
			}
			b.SetBytes(folded)
			b.StartTimer()
		}
	}
}
