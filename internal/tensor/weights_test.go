package tensor_test

import (
	"testing"

	"bolt/internal/codegen"
	"bolt/internal/gpu"
	"bolt/internal/models"
	"bolt/internal/profiler"
	"bolt/internal/relay"
	"bolt/internal/tensor"
)

// weights returns the graph's seeded constants.
func weights(t *testing.T, g *relay.Graph) []*relay.Node {
	t.Helper()
	var ws []*relay.Node
	for _, n := range g.Nodes {
		if n.Op == relay.OpConstant && tensor.Undrawn(n.Value) {
			ws = append(ws, n)
		}
	}
	return ws
}

// TestVGGBuildDrawsNoWeight: building VGG-16 at batch 32 (138 M
// parameters) draws no weight, and reading one weight draws only it.
func TestVGGBuildDrawsNoWeight(t *testing.T) {
	g := models.VGG(16, 32)
	ws := weights(t, g)
	if want := 2 * (13 + 3); len(ws) != want {
		t.Fatalf("%d undrawn weights after the build, want all %d", len(ws), want)
	}
	var read *relay.Node
	for _, n := range ws {
		if n.Name == "conv12_w" {
			read = n
		}
	}
	if read == nil {
		t.Fatalf("no conv12_w among %d weights", len(ws))
	}
	if v := read.Value.At(0, 0, 0, 0); v == 0 {
		t.Fatal("conv12_w[0][0][0][0] = 0: drawn values are zero")
	}
	for _, n := range ws {
		if tensor.Undrawn(n.Value) == (n == read) {
			t.Errorf("%s: undrawn %v after reading conv12_w", n.Name, tensor.Undrawn(n.Value))
		}
	}
}

// TestCompileDrawsNoWeight: optimizing, compiling and planning a zoo
// model, and reading its memory report, draw none of its weights.
func TestCompileDrawsNoWeight(t *testing.T) {
	g := models.ResNet(50, 8)
	before := len(weights(t, g))
	if before == 0 {
		t.Fatal("no seeded weights in the graph")
	}
	dev := gpu.T4()
	m, err := codegen.Build(g, dev, codegen.Options{Profiler: profiler.New(dev, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if m.Memory().ParamBytes == 0 {
		t.Fatal("no parameters in the memory report")
	}
	if after := len(weights(t, m.Graph)); after != before {
		t.Fatalf("%d of %d weights undrawn after the compile", after, before)
	}
}
