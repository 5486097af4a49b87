package relay

import (
	"math/rand"
	"testing"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// buildRandomCNN emits a random-but-valid conv stack: a fuzz harness
// for the pass pipeline. Every generated graph must survive Optimize
// with a valid topology and sane shapes.
func buildRandomCNN(rng *rand.Rand) *Graph {
	b := NewBuilder()
	channels := []int{3, 8, 16, 24, 32, 46, 48, 64}
	acts := []cutlass.Activation{cutlass.ActReLU, cutlass.ActGELU, cutlass.ActHardswish, cutlass.ActSoftplus, cutlass.ActIdentity}

	ic := channels[rng.Intn(len(channels))]
	size := 8 * (1 + rng.Intn(3))
	x := b.Input("data", tensor.FP16, 1+rng.Intn(4), ic, size, size)
	cur := x
	layers := 1 + rng.Intn(5)
	for i := 0; i < layers; i++ {
		oc := channels[1+rng.Intn(len(channels)-1)]
		kernel := []int{1, 3}[rng.Intn(2)]
		stride := 1
		pad := 0
		if kernel == 3 {
			pad = 1
			if rng.Intn(3) == 0 && cur.Shape[2] >= 8 {
				stride = 2
			}
		}
		w := b.Weight("w", oc, kernel, kernel, curChannels(cur))
		cur = b.Conv2D(cur, w, stride, pad)
		if rng.Intn(2) == 0 {
			cur = b.BiasAdd(cur, b.Weight("b", oc))
		}
		if act := acts[rng.Intn(len(acts))]; act != cutlass.ActIdentity {
			cur = b.Activation(cur, act)
		}
		if rng.Intn(4) == 0 && cur.Shape[2] >= 4 {
			cur = b.MaxPool(cur, 2, 2, 0)
		}
	}
	cur = b.GlobalAvgPool(cur)
	cur = b.Dense(cur, b.Weight("fc", cur.Shape[1], 1+rng.Intn(16)))
	return b.Build(b.Softmax(cur))
}

func curChannels(n *Node) int {
	if n.Layout == tensor.LayoutNHWC {
		return n.Shape[3]
	}
	return n.Shape[1]
}

// TestOptimizeFuzz runs the whole pass pipeline over many random
// graphs: no panics, valid topology, consistent shapes, NHWC and
// padded convolutions.
func TestOptimizeFuzz(t *testing.T) {
	d := gpu.T4()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 60; i++ {
		g := buildRandomCNN(rng)
		nodesBefore := len(g.Nodes)
		if err := Optimize(g, d); err != nil {
			t.Fatalf("iteration %d: Optimize failed: %v", i, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("iteration %d: invalid graph after passes: %v", i, err)
		}
		// Output must remain a (batch, classes) softmax.
		if len(g.Output.Shape) != 2 {
			t.Fatalf("iteration %d: output rank changed: %v", i, g.Output.Shape)
		}
		for _, n := range g.Nodes {
			// Convs must be NHWC with alignment-compatible channels
			// after padding.
			if n.Op == OpConv2D || n.Op == OpPersistentConv {
				if n.Layout != tensor.LayoutNHWC {
					t.Fatalf("iteration %d: conv %s not NHWC", i, n)
				}
			}
			if n.Op == OpConv2D && n.Conv.IC > 3 && n.Conv.IC%8 != 0 {
				t.Fatalf("iteration %d: conv %s left unpadded (IC=%d)", i, n, n.Conv.IC)
			}
		}
		_ = nodesBefore
	}
}

// TestOptimizeIdempotent checks that running the pipeline twice is
// harmless (passes must not re-fuse or re-pad already-processed
// graphs into invalid states).
func TestOptimizeIdempotent(t *testing.T) {
	d := gpu.T4()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		g := buildRandomCNN(rng)
		if err := Optimize(g, d); err != nil {
			t.Fatal(err)
		}
		once := len(g.Nodes)
		if err := Optimize(g, d); err != nil {
			t.Fatalf("second Optimize failed: %v", err)
		}
		if len(g.Nodes) != once {
			t.Fatalf("second Optimize changed node count %d -> %d", once, len(g.Nodes))
		}
	}
}

// TestEpilogueFusionPreservesSemantics: for random (conv, bias, act)
// triples, the fused epilogue must encode exactly the ops removed.
func TestEpilogueFusionPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	acts := []cutlass.Activation{cutlass.ActReLU, cutlass.ActGELU, cutlass.ActHardswish}
	for i := 0; i < 30; i++ {
		withBias := rng.Intn(2) == 0
		act := acts[rng.Intn(len(acts))]
		b := NewBuilder()
		x := b.Input("x", tensor.FP16, 1, 8, 8, 8)
		c := b.Conv2D(x, b.Weight("w", 8, 3, 3, 8), 1, 1)
		expect := 0
		if withBias {
			c = b.BiasAdd(c, b.Weight("b", 8))
			expect++
		}
		c = b.Activation(c, act)
		expect++
		g := b.Build(c)
		if got := FuseEpilogue(g); got != expect {
			t.Fatalf("iteration %d: fused %d, want %d", i, got, expect)
		}
		conv := g.Output
		if conv.Op != OpConv2D {
			t.Fatal("fusion did not terminate at the conv")
		}
		if conv.Epilogue.Act != act {
			t.Fatalf("activation lost: %v != %v", conv.Epilogue.Act, act)
		}
		if conv.Epilogue.BiasVector != withBias {
			t.Fatalf("bias flag wrong: %v != %v", conv.Epilogue.BiasVector, withBias)
		}
	}
}
