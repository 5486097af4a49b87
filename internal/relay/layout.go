package relay

import (
	"fmt"

	"bolt/internal/tensor"
)

// TransformLayout rewrites a graph authored in NCHW (the PyTorch
// convention) into NHWC, the only layout the templated convolution
// kernels support (paper §3.2.3). Every 4-D NCHW intermediate becomes
// NHWC but a 4-D Softmax, and every operand reaches its consumer in the
// layout the consumer reads: NCHW for the ops that read a tensor in
// memory order (a Flatten and a 4-D Softmax, which must see the
// authored order), NHWC for the rest. Where an operand is in the other
// layout a layout-transform op is inserted, one per value and layout
// and shared by the value's consumers; a 4-D NHWC output is transformed
// back to NCHW. Every transform is marked Folded because Bolt
// implements it inside the adjacent kernel's generated CUDA rather than
// as a separate launch, with the destination tensor pre-allocated in
// the model's parameters. Running the pass twice changes nothing.
func TransformLayout(g *Graph) error {
	for _, n := range g.Nodes {
		if n.Op == OpInput || n.Op == OpConstant || n.Op == OpLayoutTransform || readsNCHW(n) {
			continue
		}
		if len(n.Shape) == 4 && n.Layout == tensor.LayoutNCHW {
			n.Shape = permute(n.Shape, tensor.LayoutNHWC)
			n.Layout = tensor.LayoutNHWC
		}
	}
	type key struct {
		id int
		to tensor.Layout
	}
	transforms := map[key]*Node{}
	transform := func(x *Node, to tensor.Layout, name string) *Node {
		k := key{x.ID, to}
		if tr, ok := transforms[k]; ok {
			return tr
		}
		tr := &Node{ID: g.NewID(), Op: OpLayoutTransform, Inputs: []*Node{x},
			Shape: permute(x.Shape, to), DType: x.DType, Layout: to, ToLayout: to,
			Folded: true, Name: name}
		g.insertAfter(x, tr)
		transforms[k] = tr
		return tr
	}
	for _, n := range append([]*Node(nil), g.Nodes...) {
		if n.Op == OpInput || n.Op == OpConstant || n.Op == OpLayoutTransform {
			continue
		}
		want, other := tensor.LayoutNHWC, tensor.LayoutNCHW
		if readsNCHW(n) {
			want, other = other, want
		}
		for i, x := range n.Inputs {
			if x.Op == OpConstant || len(x.Shape) != 4 || x.Layout != other {
				continue
			}
			name := "layout_to_" + want.String()
			if x.Op == OpInput {
				name = "layout_in"
			}
			n.Inputs[i] = transform(x, want, name)
		}
	}
	// The caller sees the layout the model was authored in.
	if out := g.Output; len(out.Shape) == 4 && out.Layout == tensor.LayoutNHWC {
		g.Output = transform(out, tensor.LayoutNCHW, "layout_out")
	}
	g.rebuild()
	return g.Validate()
}

// readsNCHW reports whether n reads its operand in memory order, so
// that it must see a 4-D operand in the authored NCHW layout: a Flatten
// of a 4-D tensor, and a 4-D Softmax, whose rows are the last axis.
func readsNCHW(n *Node) bool {
	switch n.Op {
	case OpFlatten:
		return len(n.Inputs[0].Shape) == 4
	case OpSoftmax:
		return len(n.Shape) == 4
	}
	return false
}

// permute returns the 4-D shape s, whose layout is the other one of
// NCHW and NHWC, in layout to.
func permute(s tensor.Shape, to tensor.Layout) tensor.Shape {
	if to == tensor.LayoutNHWC {
		return tensor.Shape{s[0], s[2], s[3], s[1]}
	}
	return tensor.Shape{s[0], s[3], s[1], s[2]}
}

// padLastDim zero-pads the innermost dimension of a 4-D tensor to
// newC, regardless of its layout tag (used for OHWI weights and NHWC
// activations alike).
func padLastDim(t *tensor.Tensor, newC int) *tensor.Tensor {
	s := t.Shape()
	if len(s) != 4 {
		panic(fmt.Sprintf("relay: padLastDim needs 4-D tensor, got %v", s))
	}
	c := s[3]
	out := tensor.NewWithLayout(t.DType(), t.Layout(), s[0], s[1], s[2], newC)
	rows := s[0] * s[1] * s[2]
	for r := 0; r < rows; r++ {
		copy(out.Data()[r*newC:r*newC+c], t.Data()[r*c:(r+1)*c])
	}
	return out
}

// padOuterDim zero-pads the outermost dimension (OC for OHWI weights).
func padOuterDim(t *tensor.Tensor, newO int) *tensor.Tensor {
	s := t.Shape()
	out := tensor.NewWithLayout(t.DType(), t.Layout(), newO, s[1], s[2], s[3])
	copy(out.Data(), t.Data())
	return out
}

func roundUp8(x int) int { return (x + 7) / 8 * 8 }

// PadChannels implements Bolt's automated kernel padding (paper
// §3.2.3): convolutions whose input channels are not divisible by 8
// cannot use 128-bit vectorized access, so the activation is padded to
// the next multiple of 8 (a Folded=false pad kernel, whose cost Table 3
// quantifies) and the weights are padded at compile time (free). When
// output channels are unaligned, the weights are padded along OC and a
// folded slice restores the logical shape. Requires NHWC (run after
// TransformLayout). Returns the number of convolutions padded.
func PadChannels(g *Graph) int {
	padded := 0
	for _, n := range append([]*Node{}, g.Nodes...) {
		if n.Op != OpConv2D || n.Layout != tensor.LayoutNHWC {
			continue
		}
		w := n.Inputs[1]
		if w.Op != OpConstant {
			continue
		}
		changed := false
		if ic := n.Conv.IC; ic%8 != 0 && ic > 3 {
			// First-layer IC=3 convs keep a narrow-alignment kernel: the
			// paper pads production workloads (IC 46, 174, ...) where
			// the win outweighs the pad cost; padding 3->8 nearly
			// triples the input volume.
			newIC := roundUp8(ic)
			// Pad weights along IC at compile time.
			wNew := padLastDim(w.Value, newIC)
			wc := &Node{ID: g.NewID(), Op: OpConstant, Name: w.Name + "_padic",
				Shape: wNew.Shape().Clone(), DType: wNew.DType(), Layout: wNew.Layout(), Value: wNew}
			g.insertAfter(w, wc)
			n.Inputs[1] = wc
			// Pad the activation with an explicit kernel. The padded
			// buffer is pre-allocated in the model parameters, but the
			// copy itself still costs time (Table 3's "Cost" column).
			x := n.Inputs[0]
			xs := x.Shape
			pad := &Node{ID: g.NewID(), Op: OpPadChannels, Inputs: []*Node{x}, PadTo: newIC,
				Shape: tensor.Shape{xs[0], xs[1], xs[2], newIC}, DType: x.DType,
				Layout: tensor.LayoutNHWC, Name: "pad_ic"}
			g.insertAfter(x, pad)
			n.Inputs[0] = pad
			n.Conv.IC = newIC
			changed = true
		}
		if oc := n.Conv.OC; oc%8 != 0 {
			newOC := roundUp8(oc)
			wNew := padOuterDim(n.Inputs[1].ValueOrPanic(), newOC)
			wc := &Node{ID: g.NewID(), Op: OpConstant, Name: w.Name + "_padoc",
				Shape: wNew.Shape().Clone(), DType: wNew.DType(), Layout: wNew.Layout(), Value: wNew}
			g.insertAfter(n.Inputs[1], wc)
			n.Inputs[1] = wc
			if n.FilterScale != nil {
				// A fresh slice: clones of this graph share the old one.
				// The padded channels' weights are zero at any scale.
				sc := make([]float32, newOC)
				copy(sc, n.FilterScale)
				n.FilterScale = sc
			}
			// Bias (fused epilogue) must be padded too.
			if len(n.Inputs) > 2 && n.Inputs[2].Op == OpConstant {
				old := n.Inputs[2].Value
				nb := tensor.New(old.DType(), newOC)
				copy(nb.Data(), old.Data())
				bc := &Node{ID: g.NewID(), Op: OpConstant, Name: "bias_padoc",
					Shape: nb.Shape().Clone(), DType: nb.DType(), Layout: nb.Layout(), Value: nb}
				g.insertAfter(n.Inputs[2], bc)
				n.Inputs[2] = bc
			}
			oldShape := n.Shape.Clone()
			n.Conv.OC = newOC
			n.Shape = tensor.Shape{oldShape[0], oldShape[1], oldShape[2], newOC}
			// Folded slice restores the logical channel count for
			// downstream consumers.
			sl := &Node{ID: g.NewID(), Op: OpSliceChannels, Inputs: []*Node{n}, PadTo: oc,
				Shape: oldShape, DType: n.DType, Layout: tensor.LayoutNHWC,
				Folded: true, Name: "slice_oc"}
			g.insertAfter(n, sl)
			// Rewire consumers of n (except sl) to sl.
			for _, m := range g.Nodes {
				if m == sl {
					continue
				}
				for i, x := range m.Inputs {
					if x == n {
						m.Inputs[i] = sl
					}
				}
			}
			if g.Output == n {
				g.Output = sl
			}
			changed = true
		}
		if changed {
			padded++
		}
	}
	g.rebuild()
	return padded
}

// ValueOrPanic returns the constant tensor or panics.
func (n *Node) ValueOrPanic() *tensor.Tensor {
	if n.Value == nil {
		panic(fmt.Sprintf("relay: node %s has no constant value", n))
	}
	return n.Value
}
