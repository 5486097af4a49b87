package relay

import (
	"fmt"
	"math/rand"
	"testing"

	"bolt/internal/cutlass"
	"bolt/internal/tensor"
)

// fuseEpilogueOracle is FuseEpilogue as it was before the one-sweep
// pass: restart the node scan and rebuild the consumer map after every
// single fusion. The tests hold FuseEpilogue to it.
func fuseEpilogueOracle(g *Graph) int {
	fused := 0
	for {
		consumers := g.consumersOracle()
		changed := false
		for _, n := range g.Nodes {
			if !(n.Op == OpDense || n.Op == OpConv2D) {
				continue
			}
			cs := consumers[n.ID]
			if len(cs) != 1 {
				continue
			}
			next := cs[0]
			switch next.Op {
			case OpBiasAdd:
				if n.Epilogue != nil && n.Epilogue.Act != cutlass.ActIdentity {
					continue // activation already applied; bias cannot follow
				}
				epi := ensureEpilogue(n)
				if epi.BiasVector {
					continue // already has a bias
				}
				epi.BiasVector = true
				n.Inputs = append(n.Inputs, next.Inputs[1])
				g.replaceNode(next, n)
				changed = true
				fused++
			case OpActivation:
				epi := ensureEpilogue(n)
				if epi.Act != cutlass.ActIdentity {
					continue
				}
				epi.Act = next.Act
				g.replaceNode(next, n)
				changed = true
				fused++
			}
			if changed {
				break
			}
		}
		if !changed {
			break
		}
	}
	g.rebuild()
	return fused
}

// sameFusion fails unless got and want, two builds of one graph, have
// the same node list, epilogues, inputs and output.
func sameFusion(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s: %d nodes, want %d", name, len(got.Nodes), len(want.Nodes))
	}
	for i, n := range got.Nodes {
		w := want.Nodes[i]
		if n.ID != w.ID || n.Op != w.Op || n.Name != w.Name || !n.Shape.Equal(w.Shape) {
			t.Fatalf("%s: node %d is %v, want %v", name, i, n, w)
		}
		if (n.Epilogue == nil) != (w.Epilogue == nil) || n.Epilogue != nil && *n.Epilogue != *w.Epilogue {
			t.Fatalf("%s: node %v epilogue %+v, want %+v", name, n, n.Epilogue, w.Epilogue)
		}
		if len(n.Inputs) != len(w.Inputs) {
			t.Fatalf("%s: node %v has %d inputs, want %d", name, n, len(n.Inputs), len(w.Inputs))
		}
		for j, in := range n.Inputs {
			if in.ID != w.Inputs[j].ID {
				t.Fatalf("%s: node %v input %d is %v, want %v", name, n, j, in, w.Inputs[j])
			}
		}
	}
	if got.Output.ID != want.Output.ID {
		t.Fatalf("%s: output %v, want %v", name, got.Output, want.Output)
	}
}

// fuseMatchesOracle fuses two builds of a graph, one with each pass,
// and compares the results.
func fuseMatchesOracle(t *testing.T, name string, build func() *Graph) {
	t.Helper()
	got, want := build(), build()
	if n, m := FuseEpilogue(got), fuseEpilogueOracle(want); n != m {
		t.Fatalf("%s: fused %d, the old pass %d", name, n, m)
	}
	sameFusion(t, name, got, want)
}

// fusionGraphs are the hand-built cases of the fusion rules: bias then
// activation, a fan-out, activation only, an activation after an
// activation, a bias after an activation, a bias after a bias, an
// anchor chain, and a bias produced by an anchor.
var fusionGraphs = map[string]func() *Graph{
	"bias+act": func() *Graph {
		b := NewBuilder()
		x := b.Input("x", tensor.FP16, 32, 64)
		d := b.BiasAdd(b.Dense(x, b.Weight("w", 64, 128)), b.Weight("b", 128))
		return b.Build(b.Activation(d, cutlass.ActGELU))
	},
	"fanout": func() *Graph {
		b := NewBuilder()
		x := b.Input("x", tensor.FP16, 32, 64)
		d := b.Dense(x, b.Weight("w", 64, 64))
		return b.Build(b.Add(b.Activation(d, cutlass.ActReLU), b.Activation(d, cutlass.ActSigmoid)))
	},
	"act-only": func() *Graph {
		b := NewBuilder()
		x := b.Input("x", tensor.FP16, 1, 8, 8, 16)
		x.Layout = tensor.LayoutNHWC
		return b.Build(b.Activation(b.Conv2D(x, b.Weight("w", 16, 3, 3, 16), 1, 1), cutlass.ActHardswish))
	},
	"act-act-bias-bias": func() *Graph {
		b := NewBuilder()
		x := b.Input("x", tensor.FP16, 8, 16)
		d := b.Activation(b.Dense(x, b.Weight("w", 16, 16)), cutlass.ActReLU)
		d = b.BiasAdd(b.Activation(d, cutlass.ActGELU), b.Weight("b0", 16))
		d = b.Dense(d, b.Weight("w1", 16, 16))
		d = b.BiasAdd(b.BiasAdd(d, b.Weight("b1", 16)), b.Weight("b2", 16))
		return b.Build(b.Activation(d, cutlass.ActReLU))
	},
	"anchor-chain": func() *Graph {
		b := NewBuilder()
		x := b.Input("x", tensor.FP16, 8, 16)
		for i := 0; i < 4; i++ {
			x = b.Dense(x, b.Weight(fmt.Sprint("w", i), 16, 16))
			if i%2 == 0 {
				x = b.BiasAdd(x, b.Weight(fmt.Sprint("b", i), 16))
			}
			x = b.Activation(x, cutlass.ActReLU)
		}
		return b.Build(b.Softmax(x))
	},
	"anchor-bias": func() *Graph {
		b := NewBuilder()
		x := b.Input("x", tensor.FP16, 1, 16)
		bias := b.Flatten(b.Dense(x, b.Weight("wb", 16, 16)))
		y := b.Input("y", tensor.FP16, 8, 16)
		d := b.BiasAdd(b.Dense(y, b.Weight("w", 16, 16)), bias)
		return b.Build(b.Activation(d, cutlass.ActReLU))
	},
}

// TestFuseEpilogueMatchesOracle holds the one-sweep pass to the old
// loop on the hand-built cases and on random CNNs, with and without
// their BatchNorms folded.
func TestFuseEpilogueMatchesOracle(t *testing.T) {
	for name, build := range fusionGraphs {
		fuseMatchesOracle(t, name, build)
	}
	for i := 0; i < 50; i++ {
		seed := int64(i)
		build := func() *Graph { return buildRandomCNN(rand.New(rand.NewSource(seed))) }
		fuseMatchesOracle(t, fmt.Sprint("random cnn ", i), build)
		fuseMatchesOracle(t, fmt.Sprint("folded random cnn ", i), func() *Graph {
			g := build()
			FoldBatchNorm(g)
			return g
		})
	}
}
