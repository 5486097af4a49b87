package relay

import (
	"fmt"

	"bolt/internal/cutlass"
	"bolt/internal/tensor"
)

// Builder constructs relay graphs with shape inference at build time,
// mirroring how the TVM frontend parses a framework model into Relay
// (paper Figure 3, first stage).
type Builder struct {
	nodes  []*Node
	inputs []*Node
	nextID int
	seed   int64
}

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder { return &Builder{seed: 1} }

func (b *Builder) add(n *Node) *Node {
	n.ID = b.nextID
	b.nextID++
	b.nodes = append(b.nodes, n)
	return n
}

// Input declares a graph input of the given dtype and shape. 4-D inputs
// default to NCHW (the PyTorch convention the paper's layout pass must
// transform).
func (b *Builder) Input(name string, dt tensor.DType, shape ...int) *Node {
	layout := tensor.LayoutRowMajor
	if len(shape) == 4 {
		layout = tensor.LayoutNCHW
	}
	n := b.add(&Node{Op: OpInput, Name: name, Shape: tensor.Shape(shape).Clone(), DType: dt, Layout: layout})
	b.inputs = append(b.inputs, n)
	return n
}

// Constant embeds a parameter tensor.
func (b *Builder) Constant(name string, v *tensor.Tensor) *Node {
	return b.add(&Node{Op: OpConstant, Name: name, Shape: v.Shape().Clone(), DType: v.DType(), Layout: v.Layout(), Value: v})
}

// Weight creates a deterministic pseudo-random FP16 parameter, for
// building models without trained checkpoints. A weight is its seed:
// the builder's seed, one more per call, with values in [-0.1, 0.1]
// drawn on the first read (tensor.Random), so building, optimizing,
// planning and pricing a graph hold none of its weight values.
func (b *Builder) Weight(name string, shape ...int) *Node {
	t := tensor.Random(tensor.FP16, b.seed, 0.1, shape...)
	b.seed++
	return b.Constant(name, t)
}

// Dense adds X·W with X (M×K) and W (K×N). W must be a Constant (or
// Weight) for the graph to compile: kernels pack their weights once.
func (b *Builder) Dense(x, w *Node) *Node {
	xs, ws := x.Shape, w.Shape
	if len(xs) != 2 || len(ws) != 2 {
		panic(fmt.Sprintf("relay: dense needs 2-D operands, got %v x %v", xs, ws))
	}
	if xs[1] != ws[0] {
		panic(fmt.Sprintf("relay: dense K mismatch %v x %v", xs, ws))
	}
	return b.add(&Node{Op: OpDense, Inputs: []*Node{x, w}, Units: ws[1],
		Shape: tensor.Shape{xs[0], ws[1]}, DType: x.DType, Layout: tensor.LayoutRowMajor})
}

// Conv2D adds a convolution. x must be 4-D; w must be OHWI
// (OC, KH, KW, IC) and, as for Dense, a Constant. Geometry attributes
// come from shape.
func (b *Builder) Conv2D(x, w *Node, stride, pad int) *Node {
	xs, ws := x.Shape, w.Shape
	if len(xs) != 4 || len(ws) != 4 {
		panic(fmt.Sprintf("relay: conv2d needs 4-D operands, got %v x %v", xs, ws))
	}
	var n, h, wd, c int
	switch x.Layout {
	case tensor.LayoutNCHW:
		n, c, h, wd = xs[0], xs[1], xs[2], xs[3]
	case tensor.LayoutNHWC:
		n, h, wd, c = xs[0], xs[1], xs[2], xs[3]
	default:
		panic(fmt.Sprintf("relay: conv2d input layout %v unsupported", x.Layout))
	}
	oc, kh, kw, ic := ws[0], ws[1], ws[2], ws[3]
	if ic != c {
		panic(fmt.Sprintf("relay: conv2d channel mismatch: input %d, weight IC %d", c, ic))
	}
	shape := cutlass.ConvShape{N: n, H: h, W: wd, IC: ic, OC: oc, KH: kh, KW: kw,
		StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
	if err := shape.Validate(); err != nil {
		panic(err)
	}
	var out tensor.Shape
	if x.Layout == tensor.LayoutNCHW {
		out = tensor.Shape{n, oc, shape.OutH(), shape.OutW()}
	} else {
		out = tensor.Shape{n, shape.OutH(), shape.OutW(), oc}
	}
	return b.add(&Node{Op: OpConv2D, Inputs: []*Node{x, w}, Conv: shape,
		Shape: out, DType: x.DType, Layout: x.Layout})
}

// BiasAdd broadcasts bias over the channel (4-D) or feature (2-D) axis.
func (b *Builder) BiasAdd(x, bias *Node) *Node {
	want := x.Shape[len(x.Shape)-1]
	if len(x.Shape) == 4 && x.Layout == tensor.LayoutNCHW {
		want = x.Shape[1]
	}
	if bias.Shape.NumElements() != want {
		panic(fmt.Sprintf("relay: bias length %d != channel dim %d", bias.Shape.NumElements(), want))
	}
	return b.add(&Node{Op: OpBiasAdd, Inputs: []*Node{x, bias},
		Shape: x.Shape.Clone(), DType: x.DType, Layout: x.Layout})
}

// Activation applies an elementwise nonlinearity.
func (b *Builder) Activation(x *Node, act cutlass.Activation) *Node {
	return b.add(&Node{Op: OpActivation, Inputs: []*Node{x}, Act: act,
		Shape: x.Shape.Clone(), DType: x.DType, Layout: x.Layout})
}

// Add is elementwise addition of same-shaped tensors.
func (b *Builder) Add(x, y *Node) *Node {
	if !x.Shape.Equal(y.Shape) {
		panic(fmt.Sprintf("relay: add shape mismatch %v vs %v", x.Shape, y.Shape))
	}
	return b.add(&Node{Op: OpAdd, Inputs: []*Node{x, y},
		Shape: x.Shape.Clone(), DType: x.DType, Layout: x.Layout})
}

// BatchNorm adds inference-mode batch normalization with the four
// per-channel parameter vectors.
func (b *Builder) BatchNorm(x, gamma, beta, mean, variance *Node, eps float64) *Node {
	return b.add(&Node{Op: OpBatchNorm, Inputs: []*Node{x, gamma, beta, mean, variance}, Eps: eps,
		Shape: x.Shape.Clone(), DType: x.DType, Layout: x.Layout})
}

// MaxPool adds 2-D max pooling.
func (b *Builder) MaxPool(x *Node, kernel, stride, pad int) *Node {
	xs := x.Shape
	pool := PoolAttrs{Kernel: kernel, Stride: stride, Pad: pad}
	outDim := func(in int) int { return (in+2*pad-kernel)/stride + 1 }
	var out tensor.Shape
	if x.Layout == tensor.LayoutNCHW {
		out = tensor.Shape{xs[0], xs[1], outDim(xs[2]), outDim(xs[3])}
	} else {
		out = tensor.Shape{xs[0], outDim(xs[1]), outDim(xs[2]), xs[3]}
	}
	return b.add(&Node{Op: OpMaxPool, Inputs: []*Node{x}, Pool: pool,
		Shape: out, DType: x.DType, Layout: x.Layout})
}

// GlobalAvgPool reduces the spatial dimensions to 1x1 and flattens to
// (N, C).
func (b *Builder) GlobalAvgPool(x *Node) *Node {
	xs := x.Shape
	var c int
	if x.Layout == tensor.LayoutNCHW {
		c = xs[1]
	} else {
		c = xs[3]
	}
	return b.add(&Node{Op: OpGlobalAvgPool, Inputs: []*Node{x},
		Shape: tensor.Shape{xs[0], c}, DType: x.DType, Layout: tensor.LayoutRowMajor})
}

// Flatten collapses non-batch dims.
func (b *Builder) Flatten(x *Node) *Node {
	n := x.Shape[0]
	rest := x.Shape.NumElements() / n
	return b.add(&Node{Op: OpFlatten, Inputs: []*Node{x},
		Shape: tensor.Shape{n, rest}, DType: x.DType, Layout: tensor.LayoutRowMajor})
}

// Softmax applies a row softmax over the last dimension.
func (b *Builder) Softmax(x *Node) *Node {
	return b.add(&Node{Op: OpSoftmax, Inputs: []*Node{x},
		Shape: x.Shape.Clone(), DType: x.DType, Layout: x.Layout})
}

// Build finalizes the graph with the given output node.
func (b *Builder) Build(output *Node) *Graph {
	g := &Graph{Nodes: b.nodes, Inputs: b.inputs, Output: output}
	g.rebuild()
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}
