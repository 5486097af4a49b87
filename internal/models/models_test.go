package models

import (
	"testing"

	"bolt/internal/cutlass"
	"bolt/internal/relay"
	"bolt/internal/tensor"
)

func countOp(g *relay.Graph, op relay.OpKind) int { return g.CountOp(op) }

func TestVGG16Structure(t *testing.T) {
	g := VGG(16, 32)
	if n := countOp(g, relay.OpConv2D); n != 13 {
		t.Errorf("VGG-16 has %d convs, want 13", n)
	}
	if n := countOp(g, relay.OpDense); n != 3 {
		t.Errorf("VGG-16 has %d dense, want 3", n)
	}
	if n := countOp(g, relay.OpMaxPool); n != 5 {
		t.Errorf("VGG-16 has %d pools, want 5", n)
	}
	if !g.Output.Shape.Equal(tensor.Shape{32, 1000}) {
		t.Errorf("output shape %v", g.Output.Shape)
	}
}

func TestVGG19Structure(t *testing.T) {
	g := VGG(19, 8)
	if n := countOp(g, relay.OpConv2D); n != 16 {
		t.Errorf("VGG-19 has %d convs, want 16", n)
	}
}

func TestResNet18Structure(t *testing.T) {
	g := ResNet(18, 32)
	// stem + 8 blocks * 2 convs + 3 downsample 1x1 = 20
	if n := countOp(g, relay.OpConv2D); n != 20 {
		t.Errorf("ResNet-18 has %d convs, want 20", n)
	}
	if n := countOp(g, relay.OpBatchNorm); n != 20 {
		t.Errorf("ResNet-18 has %d BNs, want 20", n)
	}
	if n := countOp(g, relay.OpAdd); n != 8 {
		t.Errorf("ResNet-18 has %d residual adds, want 8", n)
	}
	if !g.Output.Shape.Equal(tensor.Shape{32, 1000}) {
		t.Errorf("output shape %v", g.Output.Shape)
	}
}

func TestResNet50Structure(t *testing.T) {
	g := ResNet(50, 4)
	// stem + 16 bottlenecks * 3 + 4 downsamples = 53
	if n := countOp(g, relay.OpConv2D); n != 53 {
		t.Errorf("ResNet-50 has %d convs, want 53", n)
	}
	if n := countOp(g, relay.OpAdd); n != 16 {
		t.Errorf("ResNet-50 has %d residual adds, want 16", n)
	}
}

func TestRepVGGStructure(t *testing.T) {
	// A0: 1 + 2 + 4 + 14 + 1 = 22 convs.
	g := RepVGG("A0", 32, RepVGGOptions{})
	if n := countOp(g, relay.OpConv2D); n != 22 {
		t.Errorf("RepVGG-A0 has %d convs, want 22", n)
	}
	if n := countOp(g, relay.OpBatchNorm); n != 0 {
		t.Error("deploy-mode RepVGG must have no BN")
	}
	// B0: 1 + 4 + 6 + 16 + 1 = 28.
	g = RepVGG("B0", 32, RepVGGOptions{})
	if n := countOp(g, relay.OpConv2D); n != 28 {
		t.Errorf("RepVGG-B0 has %d convs, want 28", n)
	}
}

func TestRepVGGAugAddsPointwise(t *testing.T) {
	plain := RepVGG("A0", 8, RepVGGOptions{})
	aug := RepVGG("A0", 8, RepVGGOptions{Deepen1x1: true})
	// All 21 non-head 3x3 convs gain a 1x1 follower.
	want := countOp(plain, relay.OpConv2D) + 21
	if n := countOp(aug, relay.OpConv2D); n != want {
		t.Errorf("augmented A0 has %d convs, want %d", n, want)
	}
	partial := RepVGG("A0", 8, RepVGGOptions{Deepen1x1: true, Deepen1x1Layers: 3})
	if n := countOp(partial, relay.OpConv2D); n != countOp(plain, relay.OpConv2D)+3 {
		t.Errorf("partial deepening added %d convs, want 3", n-countOp(plain, relay.OpConv2D))
	}
}

func TestRepVGGActivationOption(t *testing.T) {
	g := RepVGG("A0", 8, RepVGGOptions{Activation: cutlass.ActHardswish})
	for _, n := range g.Nodes {
		if n.Op == relay.OpActivation && n.Act != cutlass.ActHardswish {
			t.Fatalf("activation %v leaked in", n.Act)
		}
	}
}

func TestRepVGGWidths(t *testing.T) {
	a0 := RepVGGVariant("A0")
	if a0.Width[0] != 48 || a0.Width[4] != 1280 {
		t.Errorf("A0 widths %v", a0.Width)
	}
	b0 := RepVGGVariant("B0")
	if b0.Blocks[2] != 16 || b0.Width[3] != 256 {
		t.Errorf("B0 spec %+v", b0)
	}
}

func TestBERTGemms(t *testing.T) {
	ws := BERTGemms(32, 40)
	if len(ws) != 3 {
		t.Fatalf("%d BERT workloads", len(ws))
	}
	if ws[0].M != 1280 {
		t.Errorf("M = %d, want 32*40=1280", ws[0].M)
	}
	if ws[1].N != 3072 || ws[2].K != 3072 {
		t.Error("FFN dims wrong")
	}
}

func TestTableWorkloads(t *testing.T) {
	if len(Table1Workloads()) != 4 {
		t.Error("Table 1 has 4 rows")
	}
	t2 := Table2Workloads()
	if len(t2) != 6 {
		t.Error("Table 2 has 6 rows")
	}
	for _, w := range t2 {
		if w.Then.KH != 1 || w.Then.StrideH != 1 || w.Then.PadH != 0 {
			t.Error("Table 2 second conv must be 1x1/s1/p0")
		}
		if w.Then.IC != w.First.OC {
			t.Error("Table 2 channel chaining broken")
		}
		if w.Then.H != w.First.OutH() {
			t.Error("Table 2 spatial chaining broken")
		}
	}
	for _, w := range Table3Workloads() {
		if w.IC%8 == 0 {
			t.Error("Table 3 workloads must have unaligned IC")
		}
		if err := w.Shape().Validate(); err != nil {
			t.Errorf("Table 3 shape invalid: %v", err)
		}
	}
}
