package codegen

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/tensor"
)

// The oracles in this file never run relay.TransformLayout: they
// compute an authored NCHW network with the reference kernels, moving
// the layout by hand around the NHWC convolution.

// layoutNet is an NCHW network, 8 channels of 4x4, whose conv (16
// output channels) feeds head: the authored graph plus the conv's
// weight and shape, taken before any pass runs.
func layoutNet(head func(b *relay.Builder, conv *relay.Node) *relay.Node) (*relay.Graph, *tensor.Tensor, cutlass.ConvShape) {
	b := relay.NewBuilder()
	x := b.Input("data", tensor.FP16, 2, 8, 4, 4)
	w := b.Weight("w", 16, 3, 3, 8)
	c := b.Conv2D(x, w, 1, 1)
	return b.Build(head(b, c)), w.Value, c.Conv
}

// refConvNCHW is the conv of an NCHW x, returned NCHW: the reference
// kernel on x permuted to NHWC, its output permuted back.
func refConvNCHW(s cutlass.ConvShape, x, w *tensor.Tensor) *tensor.Tensor {
	y := cutlass.ReferenceConv2D(s, tensor.ToNHWCInto(nil, x), w, nil, cutlass.DefaultEpilogue())
	return tensor.ToNCHWInto(nil, y)
}

// layoutInput is the seeded NCHW input of layoutNet.
func layoutInput() *tensor.Tensor {
	in := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNCHW, 2, 8, 4, 4)
	in.FillRandom(7, 1)
	return in
}

// bothBackends compiles a fresh graph from build with the Bolt recipe
// and with the baseline's, and returns each module by name.
func bothBackends(t *testing.T, build func() *relay.Graph) map[string]*rt.Module {
	t.Helper()
	dev := gpu.T4()
	return map[string]*rt.Module{
		"bolt":     boltCompile(t, build(), dev),
		"baseline": ansorCompile(t, build(), dev, 4),
	}
}

// A Flatten of a 4-D activation reads it in the authored NCHW order on
// both backends: conv -> Flatten -> Dense over 4x4 pixels gives the
// reference conv's output, flattened channel-major, times the dense
// weight.
func TestFlattenReadsAuthoredOrder(t *testing.T) {
	var w, wfc *tensor.Tensor
	var s cutlass.ConvShape
	build := func() *relay.Graph {
		g, cw, cs := layoutNet(func(b *relay.Builder, c *relay.Node) *relay.Node {
			fc := b.Weight("wfc", 16*4*4, 10)
			wfc = fc.Value
			return b.Dense(b.Flatten(c), fc)
		})
		w, s = cw, cs
		return g
	}
	mods := bothBackends(t, build)
	in := layoutInput()
	conv := refConvNCHW(s, in, w)
	want := cutlass.ReferenceGemm(tensor.Reshape(conv, 2, 16*4*4), wfc, nil, cutlass.DefaultEpilogue())
	for name, m := range mods {
		got := m.Run(map[string]*tensor.Tensor{"data": in})
		if !tensor.AllClose(got, want, 1e-2, 1e-2) {
			t.Errorf("%s: conv -> flatten -> dense deviates from the authored function: max |diff| %g",
				name, tensor.MaxAbsDiff(got, want))
		}
	}
}

// A 4-D Softmax normalizes the authored last axis (W of NCHW) on both
// backends, and the output keeps the authored layout.
func TestSoftmax4DReadsAuthoredOrder(t *testing.T) {
	var w *tensor.Tensor
	var s cutlass.ConvShape
	build := func() *relay.Graph {
		g, cw, cs := layoutNet(func(b *relay.Builder, c *relay.Node) *relay.Node { return b.Softmax(c) })
		w, s = cw, cs
		return g
	}
	mods := bothBackends(t, build)
	in := layoutInput()
	want := refConvNCHW(s, in, w)
	d := want.Data()
	for r := 0; r < len(d); r += 4 { // rows of W = 4
		row := d[r : r+4]
		hi := math.Inf(-1)
		for _, v := range row {
			hi = math.Max(hi, float64(v))
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(float64(v) - hi)
		}
		for i, v := range row {
			row[i] = float32(math.Exp(float64(v)-hi) / sum)
		}
	}
	for name, m := range mods {
		got := m.Run(map[string]*tensor.Tensor{"data": in})
		if !got.Shape().Equal(tensor.Shape{2, 16, 4, 4}) {
			t.Fatalf("%s: output shape %v, want the authored (2, 16, 4, 4)", name, got.Shape())
		}
		if !tensor.AllClose(got, want, 1e-2, 2e-3) {
			t.Errorf("%s: 4-D softmax deviates from the authored function: max |diff| %g",
				name, tensor.MaxAbsDiff(got, want))
		}
	}
}

// A module checks each input against its graph Input node: a tensor
// holding NCHW bytes but tagged NHWC, or of another shape, panics with
// a message naming the input, on both backends, where the layout pass
// would otherwise permute it by its own tag into a wrong result.
func TestInputCheckedAgainstGraph(t *testing.T) {
	build := func() *relay.Graph {
		g, _, _ := layoutNet(func(b *relay.Builder, c *relay.Node) *relay.Node { return c })
		return g
	}
	in := layoutInput()
	mistagged := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNHWC, 2, 8, 4, 4)
	copy(mistagged.Data(), in.Data())
	reshaped := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNCHW, 1, 8, 4, 4)
	for name, m := range bothBackends(t, build) {
		m.Run(map[string]*tensor.Tensor{"data": in})
		for what, bad := range map[string]*tensor.Tensor{"mistagged": mistagged, "reshaped": reshaped} {
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, `input "data"`) {
						t.Errorf("%s, %s input: panic %q, want one naming input \"data\"", name, what, msg)
					}
				}()
				m.Run(map[string]*tensor.Tensor{"data": bad})
			}()
		}
	}
}
