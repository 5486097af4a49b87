package relay

import (
	"fmt"
	"math"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/persistent"
	"bolt/internal/tensor"
)

// replaceUses rewires every consumer of old (and the graph output) to
// consume new instead.
func (g *Graph) replaceUses(old, new *Node) {
	for _, n := range g.Nodes {
		for i, in := range n.Inputs {
			if in == old {
				n.Inputs[i] = new
			}
		}
	}
	if g.Output == old {
		g.Output = new
	}
}

// FoldBatchNorm folds inference-mode BatchNorm layers into the
// preceding convolution's weights and bias:
//
//	scale = gamma / sqrt(var + eps)
//	W'    = W * scale (per output channel)
//	b'    = beta - mean * scale
//
// The BN node is replaced by a BiasAdd so the epilogue-fusion pass can
// absorb it into the kernel. W' is never materialized: scale is
// recorded as the conv's FilterScale and the kernel's filter pack,
// which copies every weight anyway, multiplies it in. The source
// constant stays the conv's weight operand and is never written, so
// Rebatch clones of one graph keep sharing it.
func FoldBatchNorm(g *Graph) int {
	// A fold rewires its own conv from the BN to a BiasAdd and leaves
	// every other conv's consumers alone, so one count serves the pass.
	consumers := g.Consumers()
	folded := 0
	for _, n := range append([]*Node(nil), g.Nodes...) {
		if n.Op != OpBatchNorm {
			continue
		}
		conv := n.Inputs[0]
		if conv.Op != OpConv2D || len(consumers[conv.ID]) != 1 {
			continue
		}
		gamma, beta, mean, variance := n.Inputs[1], n.Inputs[2], n.Inputs[3], n.Inputs[4]
		w := conv.Inputs[1]
		if w.Op != OpConstant || gamma.Op != OpConstant || beta.Op != OpConstant ||
			mean.Op != OpConstant || variance.Op != OpConstant {
			continue
		}
		oc := conv.Conv.OC
		scale := make([]float32, oc)
		shift := make([]float32, oc)
		gd, bd, md, vd := gamma.Value.Data(), beta.Value.Data(), mean.Value.Data(), variance.Value.Data()
		for i := range scale {
			s := gd[i] / float32(math.Sqrt(float64(vd[i])+n.Eps))
			scale[i] = s
			shift[i] = bd[i] - md[i]*s
		}
		conv.FilterScale = scale
		bdt := n.DType
		if bdt == tensor.INT8 {
			bdt = tensor.FP16 // the int8 grid would destroy small BN shifts
		}
		bias := tensor.FromData(bdt, shift, oc)
		bNode := &Node{ID: g.NewID(), Op: OpConstant, Name: w.Name + "_bnbias",
			Shape: bias.Shape().Clone(), DType: bias.DType(), Layout: bias.Layout(), Value: bias}
		biasAdd := &Node{ID: g.NewID(), Op: OpBiasAdd, Inputs: []*Node{conv, bNode},
			Shape: n.Shape.Clone(), DType: n.DType, Layout: n.Layout}

		// Splice: the bias constant and the new BiasAdd enter the node
		// list in place of the BN node.
		g.insertAfter(conv, bNode)
		g.replaceNode(n, biasAdd)
		folded++
	}
	g.rebuild()
	return folded
}

// insertAfter places extra nodes immediately after anchor in the
// topological order.
func (g *Graph) insertAfter(anchor *Node, extra ...*Node) {
	for i, n := range g.Nodes {
		if n == anchor {
			rest := append([]*Node{}, g.Nodes[i+1:]...)
			g.Nodes = append(append(g.Nodes[:i+1], extra...), rest...)
			return
		}
	}
	g.Nodes = append(g.Nodes, extra...)
}

// replaceNode swaps old for new in the node list and rewires consumers.
func (g *Graph) replaceNode(old, new *Node) {
	for i, n := range g.Nodes {
		if n == old {
			g.Nodes[i] = new
			break
		}
	}
	g.replaceUses(old, new)
}

// FuseEpilogue absorbs BiasAdd and activation nodes that immediately
// follow a Dense/Conv2D anchor into the anchor's epilogue (the CUTLASS
// epilogue-fusion prerequisite of §3.1): a bias while the epilogue has
// no bias and no activation, an activation while it has none. Returns
// the number of nodes absorbed.
//
// One sweep over the anchors does it: a fusion changes only the
// consumers of its anchor (to those of the node absorbed) and of an
// absorbed bias (to the anchor), so the map is patched, not rebuilt.
func FuseEpilogue(g *Graph) int {
	consumers := g.Consumers()
	fused := 0
	for _, n := range append([]*Node(nil), g.Nodes...) {
		if !(n.Op == OpDense || n.Op == OpConv2D) {
			continue
		}
		for len(consumers[n.ID]) == 1 {
			next, epi := consumers[n.ID][0], n.Epilogue
			bare := epi == nil || epi.Act == cutlass.ActIdentity
			if next.Op == OpBiasAdd && bare && (epi == nil || !epi.BiasVector) {
				epi = ensureEpilogue(n)
				epi.BiasVector = true
				bias := next.Inputs[1]
				n.Inputs = append(n.Inputs, bias)
				for i, c := range consumers[bias.ID] {
					if c == next {
						consumers[bias.ID][i] = n
					}
				}
			} else if next.Op == OpActivation && bare {
				ensureEpilogue(n).Act = next.Act
			} else {
				break
			}
			g.replaceNode(next, n)
			consumers[n.ID] = consumers[next.ID]
			fused++
		}
	}
	g.rebuild()
	return fused
}

func ensureEpilogue(n *Node) *cutlass.Epilogue {
	if n.Epilogue == nil {
		e := cutlass.DefaultEpilogue()
		e.OutDType = n.DType
		n.Epilogue = &e
	}
	return n.Epilogue
}

// epilogueOf returns the node's epilogue or the default.
func epilogueOf(n *Node) cutlass.Epilogue {
	if n.Epilogue != nil {
		return *n.Epilogue
	}
	e := cutlass.DefaultEpilogue()
	e.OutDType = n.DType
	return e
}

// FusePersistent fuses chains of back-to-back Dense or Conv2D anchors
// into persistent kernels (paper §3.1.1) when threadblock residence
// holds and the device model predicts a speedup: the kernel
// persistent.Build picks for a chain must beat persistent.UnfusedTime.
// Must run after FuseEpilogue. Returns the number of chains created.
func FusePersistent(g *Graph, d *gpu.Device) int {
	created := 0
	// tried holds the heads whose chain failed to fuse, so they are not
	// retried forever.
	tried := make(map[*Node]bool)
	var layers []persistent.Layer // one buffer for every chain tried
	for {
		consumers := g.Consumers()
		var chain []*Node
		for _, n := range g.Nodes {
			if !(n.Op == OpDense || n.Op == OpConv2D) || tried[n] {
				continue
			}
			if c := collectChain(n, consumers); len(c) >= 2 {
				chain = c
				break
			}
		}
		if chain == nil {
			break
		}
		layers = chainLayers(layers[:0], chain)
		if !tryFuseChain(g, chain, layers, d) {
			tried[chain[0]] = true
			continue
		}
		created++
	}
	g.rebuild()
	return created
}

// collectChain walks forward from anchor while the single consumer is a
// fusable follower of the same kind.
func collectChain(anchor *Node, consumers map[int][]*Node) []*Node {
	chain := []*Node{anchor}
	cur := anchor
	for {
		cs := consumers[cur.ID]
		if len(cs) != 1 {
			break
		}
		next := cs[0]
		if next.Op != anchor.Op || next.Inputs[0] != cur {
			break
		}
		if anchor.Op == OpConv2D {
			s := next.Conv
			// Threadblock residence for convs: trailing layers must be
			// 1x1, stride 1, no padding (paper §3.1.1).
			if s.KH != 1 || s.KW != 1 || s.StrideH != 1 || s.StrideW != 1 || s.PadH != 0 || s.PadW != 0 {
				break
			}
		}
		chain = append(chain, next)
		cur = next
	}
	return chain
}

// chainLayers appends the persistent.Layer of every node in chain.
func chainLayers(layers []persistent.Layer, chain []*Node) []persistent.Layer {
	for _, n := range chain {
		l := persistent.Layer{Epilogue: epilogueOf(n), FilterScale: n.FilterScale}
		if n.Op == OpConv2D {
			l.Conv = n.Conv
		} else {
			l.K, l.N = n.Inputs[1].Shape[0], n.Inputs[1].Shape[1]
		}
		layers = append(layers, l)
	}
	return layers
}

// tryFuseChain validates residence and benefit of fusing chain, whose
// layers are given; on success it rewrites the graph with a persistent
// node and returns true.
func tryFuseChain(g *Graph, chain []*Node, layers []persistent.Layer, d *gpu.Device) bool {
	head, last := chain[0], chain[len(chain)-1]
	m := head.Shape[0]
	f, err := persistent.Build(m, layers, head.DType, d)
	if err != nil || f.Time(d) >= persistent.UnfusedTime(m, layers, head.DType, d) {
		return false // residence infeasible, or fusion not beneficial (compute-bound chain)
	}
	node := &Node{ID: g.NewID(), Op: OpPersistentGemm, Shape: last.Shape.Clone(), DType: head.DType,
		Layout: tensor.LayoutRowMajor, Inputs: append(make([]*Node, 0, 1+2*len(chain)), head.Inputs[0]),
		Chain: make([]ChainLayer, len(chain))}
	if head.Op == OpConv2D {
		node.Op, node.Layout = OpPersistentConv, last.Layout
	}
	for i, n := range chain {
		node.Chain[i] = ChainLayer{Layer: layers[i], Weight: n.Inputs[1]}
		node.Inputs = append(node.Inputs, n.Inputs[1])
		if len(n.Inputs) > 2 { // fused bias
			node.Chain[i].Bias = n.Inputs[2]
			node.Inputs = append(node.Inputs, n.Inputs[2])
		}
	}
	g.insertAfter(last, node)
	g.replaceUses(last, node)
	g.rebuild()
	return true
}

// OptimizeTVM runs the graph passes TVM's standard pipeline gives
// both backends, in order: BatchNorm folding, epilogue fusion and the
// layout transformation to NHWC. It is the whole graph-level recipe of
// the Ansor baseline, and Optimize starts with it.
func OptimizeTVM(g *Graph) error {
	FoldBatchNorm(g)
	FuseEpilogue(g)
	if err := TransformLayout(g); err != nil {
		return fmt.Errorf("relay: layout transform: %w", err)
	}
	return nil
}

// Optimize runs the full Bolt graph pipeline in order: OptimizeTVM,
// then kernel padding and persistent fusion.
func Optimize(g *Graph, d *gpu.Device) error {
	if err := OptimizeTVM(g); err != nil {
		return err
	}
	PadChannels(g)
	FusePersistent(g, d)
	return g.Validate()
}
