package codegen

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/models"
	"bolt/internal/persistent"
	"bolt/internal/profiler"
	"bolt/internal/relay"
	"bolt/internal/tensor"
)

const chainGoldenFile = "testdata/chain_golden.json"

// goldenLayer is one layer of a pinned persistent chain: its dims, the
// residence tile it starts from, and the config the residence search
// gave it.
type goldenLayer struct {
	N, K   int                `json:",omitempty"`
	Conv   cutlass.ConvShape  `json:",omitzero"`
	Tile   cutlass.GemmConfig // the layer's residence tile
	Config cutlass.GemmConfig // the fused kernel's layer config
}

// goldenChain pins one fused chain: the residence kind, every layer's
// config, the launch descriptor, and the bits of the fused and unfused
// modeled times.
type goldenChain struct {
	Case        string
	M           int `json:",omitempty"`
	Kind        string
	Layers      []goldenLayer
	Desc        gpu.KernelDesc
	TimeBits    uint64
	UnfusedBits uint64
}

// chainCase is one graph whose persistent chains are pinned.
type chainCase struct {
	name  string
	dev   *gpu.Device
	graph func() *relay.Graph
}

func relu(b *relay.Builder, x, bias *relay.Node) *relay.Node {
	return b.Activation(b.BiasAdd(x, bias), cutlass.ActReLU)
}

// mlp builds Dense+BiasAdd+ReLU layers of the given widths over an
// m-row input of widths[0] features.
func mlp(m int, widths ...int) func() *relay.Graph {
	return func() *relay.Graph {
		b := relay.NewBuilder()
		x := b.Input("data", tensor.FP16, m, widths[0])
		for i, n := range widths[1:] {
			x = relu(b, b.Dense(x, b.Weight(fmt.Sprintf("w%d", i), widths[i], n)), b.Weight(fmt.Sprintf("b%d", i), n))
		}
		return b.Build(x)
	}
}

// convPair builds a Table 2 3x3 + 1x1 pair, each with BiasAdd+ReLU.
func convPair(w models.B2BConvWorkload) func() *relay.Graph {
	return func() *relay.Graph {
		f, s := w.First, w.Then
		b := relay.NewBuilder()
		x := b.Input("data", tensor.FP16, f.N, f.IC, f.H, f.W)
		x = relu(b, b.Conv2D(x, b.Weight("w0", f.OC, f.KH, f.KW, f.IC), f.StrideH, f.PadH), b.Weight("b0", f.OC))
		x = relu(b, b.Conv2D(x, b.Weight("w1", s.OC, 1, 1, s.IC), 1, 0), b.Weight("b1", s.OC))
		return b.Build(x)
	}
}

// chainCases are the chains of Tables 1 and 2 (Table 1 on T4 and
// A100), the 4-layer MLP of the deep-chain extension, and the zoo
// models whose compiles fuse conv chains.
func chainCases() []chainCase {
	var cs []chainCase
	for _, dev := range []*gpu.Device{gpu.T4(), gpu.A100()} {
		for _, w := range models.Table1Workloads() {
			cs = append(cs, chainCase{fmt.Sprintf("tab1/%s/%dx%dx%d+%d", dev.Name, w.M, w.N0, w.K0, w.N1), dev, mlp(w.M, w.K0, w.N0, w.N1)})
		}
	}
	for _, w := range models.Table2Workloads() {
		cs = append(cs, chainCase{fmt.Sprintf("tab2/%dx%d/%d-%d/s%d", w.First.H, w.First.W, w.First.IC, w.First.OC, w.First.StrideH),
			gpu.T4(), convPair(w)})
	}
	cs = append(cs,
		chainCase{"ext-chain/32768/128-64-64-32-16", gpu.T4(), mlp(32768, 128, 64, 64, 32, 16)},
		chainCase{"resnet50/224/b1", gpu.T4(), func() *relay.Graph { return models.ResNet(50, 1) }},
		chainCase{"repvgg-a0-deepen1x1/224/b1", gpu.T4(), func() *relay.Graph {
			return models.RepVGG("A0", 1, models.RepVGGOptions{Deepen1x1: true})
		}})
	return cs
}

// compiledChain is a persistent kernel of a compiled module.
type compiledChain struct {
	node *relay.Node
	desc gpu.KernelDesc
}

// compiledChains compiles c with Bolt's recipe and returns its
// persistent kernels in graph order.
func compiledChains(t *testing.T, c chainCase) []compiledChain {
	t.Helper()
	p := profiler.New(c.dev, nil)
	p.Measure.NoiseStdDev = 0
	m, err := Build(c.graph(), c.dev, Options{Profiler: p})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	var out []compiledChain
	for _, k := range m.Kernels {
		if op := k.Node.Op; op == relay.OpPersistentGemm || op == relay.OpPersistentConv {
			out = append(out, compiledChain{k.Node, k.Desc})
		}
	}
	return out
}

// fuseTiles runs the residence search on the pinned tiles and prices
// the same layers unfused.
func fuseTiles(g goldenChain, chain []relay.ChainLayer, dev *gpu.Device) (kind string, configs []cutlass.GemmConfig, desc gpu.KernelDesc, tm, unfused float64, err error) {
	if g.M == 0 {
		layers := make([]persistent.ConvLayer, len(g.Layers))
		for i, l := range g.Layers {
			layers[i] = persistent.ConvLayer{Shape: l.Conv, Config: l.Tile, Epilogue: chain[i].Epilogue, FilterScale: chain[i].FilterScale}
		}
		f, err := persistent.ChooseConvResidence(layers, dev)
		if err != nil {
			return "", nil, desc, 0, 0, err
		}
		for _, l := range f.Layers {
			configs = append(configs, l.Config)
		}
		return f.Kind.String(), configs, f.Desc(dev), f.Time(dev), persistent.UnfusedConvTime(dev, layers), nil
	}
	layers := make([]persistent.GemmLayer, len(g.Layers))
	for i, l := range g.Layers {
		layers[i] = persistent.GemmLayer{N: l.N, K: l.K, Config: l.Tile, Epilogue: chain[i].Epilogue}
	}
	f, err := persistent.ChooseGemmResidence(g.M, layers, dev)
	if err != nil {
		return "", nil, desc, 0, 0, err
	}
	for _, l := range f.Layers {
		configs = append(configs, l.Config)
	}
	return f.Kind.String(), configs, f.Desc(dev), f.Time(dev), persistent.UnfusedGemmTime(dev, g.M, layers), nil
}

// TestPersistentChainGolden pins every persistent chain the Bolt
// recipe fuses in the Table 1 and Table 2 pairs, the 4-layer MLP, and
// ResNet-50 and RepVGG-A0 (1x1-deepened) at 224 px, batch 1: the
// compiled kernel's descriptor and modeled time bit for bit, and, from
// the layers' pinned residence tiles, the residence kind, every layer's
// config and the unfused time the fusion decision compares against.
func TestPersistentChainGolden(t *testing.T) {
	raw, err := os.ReadFile(chainGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var golden []goldenChain
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	byCase := make(map[string][]goldenChain)
	for _, g := range golden {
		byCase[g.Case] = append(byCase[g.Case], g)
	}
	for _, c := range chainCases() {
		want := byCase[c.name]
		got := compiledChains(t, c)
		if len(got) != len(want) {
			t.Errorf("%s: %d persistent chains, golden has %d", c.name, len(got), len(want))
			continue
		}
		for i, ch := range got {
			g := want[i]
			name := fmt.Sprintf("%s chain %d", c.name, i)
			if len(ch.node.Chain) != len(g.Layers) {
				t.Errorf("%s: %d layers, golden has %d", name, len(ch.node.Chain), len(g.Layers))
				continue
			}
			for j, cl := range ch.node.Chain {
				if cl.N != g.Layers[j].N || cl.K != g.Layers[j].K || cl.Conv != g.Layers[j].Conv {
					t.Errorf("%s layer %d: dims (%d,%d,%+v), golden (%d,%d,%+v)", name, j, cl.N, cl.K, cl.Conv,
						g.Layers[j].N, g.Layers[j].K, g.Layers[j].Conv)
				}
			}
			if ch.node.Op == relay.OpPersistentGemm && ch.node.Inputs[0].Shape[0] != g.M {
				t.Errorf("%s: M %d, golden %d", name, ch.node.Inputs[0].Shape[0], g.M)
			}
			if !reflect.DeepEqual(ch.desc, g.Desc) {
				t.Errorf("%s: compiled desc\n%+v\ngolden\n%+v", name, ch.desc, g.Desc)
			}
			if b := math.Float64bits(c.dev.KernelTime(ch.desc)); b != g.TimeBits {
				t.Errorf("%s: compiled time bits %#x, golden %#x", name, b, g.TimeBits)
			}
			kind, configs, desc, tm, unfused, err := fuseTiles(g, ch.node.Chain, c.dev)
			if err != nil {
				t.Errorf("%s: residence search on the golden tiles: %v", name, err)
				continue
			}
			if kind != g.Kind {
				t.Errorf("%s: kind %s, golden %s", name, kind, g.Kind)
			}
			for j, cfg := range configs {
				if cfg != g.Layers[j].Config {
					t.Errorf("%s layer %d: config %+v, golden %+v", name, j, cfg, g.Layers[j].Config)
				}
			}
			if !reflect.DeepEqual(desc, g.Desc) {
				t.Errorf("%s: desc from the golden tiles differs from golden", name)
			}
			if b := math.Float64bits(tm); b != g.TimeBits {
				t.Errorf("%s: time bits %#x, golden %#x", name, b, g.TimeBits)
			}
			if b := math.Float64bits(unfused); b != g.UnfusedBits {
				t.Errorf("%s: unfused time bits %#x, golden %#x", name, b, g.UnfusedBits)
			}
			if unfused <= tm {
				t.Errorf("%s: fused although unfused %g <= fused %g", name, unfused, tm)
			}
		}
	}
}
