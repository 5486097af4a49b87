package relay

import (
	"fmt"

	"bolt/internal/tensor"
)

// TransformLayout rewrites a graph authored in NCHW (the PyTorch
// convention) into NHWC, the only layout the templated convolution
// kernels support (paper §3.2.3). A layout-transform op is inserted
// after each 4-D input and, if needed, before a 4-D output; both are
// marked Folded because Bolt implements them inside the adjacent
// kernel's generated CUDA rather than as separate launches, with the
// destination tensor pre-allocated in the model's parameters.
func TransformLayout(g *Graph) error {
	// Permute every 4-D NCHW intermediate to NHWC.
	for _, n := range g.Nodes {
		if n.Op == OpInput || n.Op == OpConstant {
			continue
		}
		if len(n.Shape) == 4 && n.Layout == tensor.LayoutNCHW {
			n.Shape = tensor.Shape{n.Shape[0], n.Shape[2], n.Shape[3], n.Shape[1]}
			n.Layout = tensor.LayoutNHWC
		}
	}
	// Insert input transforms (skipping inputs already fed through one,
	// so the pass is idempotent).
	id := g.NewID()
	consumers := g.Consumers()
	for _, in := range g.Inputs {
		if len(in.Shape) != 4 || in.Layout != tensor.LayoutNCHW {
			continue
		}
		already := false
		for _, c := range consumers[in.ID] {
			if c.Op == OpLayoutTransform {
				already = true
			}
		}
		if already {
			continue
		}
		tr := &Node{ID: id, Op: OpLayoutTransform, Inputs: []*Node{in},
			Shape: tensor.Shape{in.Shape[0], in.Shape[2], in.Shape[3], in.Shape[1]},
			DType: in.DType, Layout: tensor.LayoutNHWC, ToLayout: tensor.LayoutNHWC,
			Folded: true, Name: "layout_in"}
		id++
		// Rewire all consumers of the input except the transform itself.
		for _, n := range g.Nodes {
			if n == tr {
				continue
			}
			for i, x := range n.Inputs {
				if x == in {
					n.Inputs[i] = tr
				}
			}
		}
		g.insertAfter(in, tr)
		if g.Output == in {
			g.Output = tr
		}
	}
	// If the output is a 4-D NHWC tensor, transform back to NCHW so the
	// caller sees the layout the model was authored in.
	out := g.Output
	if len(out.Shape) == 4 && out.Layout == tensor.LayoutNHWC {
		tr := &Node{ID: g.NewID(), Op: OpLayoutTransform, Inputs: []*Node{out},
			Shape: tensor.Shape{out.Shape[0], out.Shape[3], out.Shape[1], out.Shape[2]},
			DType: out.DType, Layout: tensor.LayoutNCHW, ToLayout: tensor.LayoutNCHW,
			Folded: true, Name: "layout_out"}
		g.insertAfter(out, tr)
		g.Output = tr
	}
	g.rebuild()
	return g.Validate()
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
