// Package relay implements a small dataflow-graph IR in the spirit of
// TVM Relay, sufficient to express the convolutional networks and
// transformer GEMM workloads in the Bolt paper, plus the graph-level
// passes Bolt adds: BatchNorm folding, epilogue fusion, persistent
// kernel fusion, layout transformation and channel padding (paper
// Figure 3).
package relay

import (
	"fmt"

	"bolt/internal/cutlass"
	"bolt/internal/persistent"
	"bolt/internal/tensor"
)

// OpKind enumerates the operators the IR understands.
type OpKind int

const (
	// OpInput is a graph input placeholder.
	OpInput OpKind = iota
	// OpConstant is an embedded weight/parameter tensor.
	OpConstant
	// OpDense is a fully connected layer: X(M×K) · W(K×N).
	OpDense
	// OpConv2D is a 2-D convolution.
	OpConv2D
	// OpBiasAdd broadcasts a vector over the channel/feature dimension.
	OpBiasAdd
	// OpActivation applies an elementwise nonlinearity.
	OpActivation
	// OpAdd is elementwise addition (residual connections).
	OpAdd
	// OpBatchNorm is inference-mode batch normalization.
	OpBatchNorm
	// OpMaxPool is 2-D max pooling.
	OpMaxPool
	// OpGlobalAvgPool averages over the spatial dimensions.
	OpGlobalAvgPool
	// OpFlatten collapses all non-batch dimensions.
	OpFlatten
	// OpSoftmax is a row softmax.
	OpSoftmax
	// OpLayoutTransform permutes NCHW <-> NHWC.
	OpLayoutTransform
	// OpPadChannels zero-pads the channel dimension (kernel padding).
	OpPadChannels
	// OpSliceChannels drops trailing padded channels.
	OpSliceChannels
	// OpPersistentGemm is a fused chain of Dense layers (persistent
	// kernel, created by the persistent-fusion pass).
	OpPersistentGemm
	// OpPersistentConv is a fused chain of Conv2D layers.
	OpPersistentConv
)

var opNames = map[OpKind]string{
	OpInput: "input", OpConstant: "constant", OpDense: "dense",
	OpConv2D: "conv2d", OpBiasAdd: "bias_add", OpActivation: "activation",
	OpAdd: "add", OpBatchNorm: "batch_norm", OpMaxPool: "max_pool2d",
	OpGlobalAvgPool: "global_avg_pool2d", OpFlatten: "flatten",
	OpSoftmax: "softmax", OpLayoutTransform: "layout_transform",
	OpPadChannels: "pad_channels", OpSliceChannels: "slice_channels",
	OpPersistentGemm: "persistent_gemm", OpPersistentConv: "persistent_conv2d",
}

// String names the op in relay convention.
func (o OpKind) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// PoolAttrs configures pooling operators.
type PoolAttrs struct {
	Kernel, Stride, Pad int
}

// ChainLayer is one layer of a persistent fused chain: the layer
// persistent.Build fuses (Conv set in OpPersistentConv chains, N and K
// in OpPersistentGemm ones) and its weight and optional bias operands.
type ChainLayer struct {
	persistent.Layer
	Weight *Node
	Bias   *Node
}

// Node is one operator instance in the graph.
type Node struct {
	ID     int
	Op     OpKind
	Name   string
	Inputs []*Node

	// Inferred output type.
	Shape  tensor.Shape
	DType  tensor.DType
	Layout tensor.Layout

	// Per-op attributes (only the relevant ones are set).
	Value    *tensor.Tensor    // OpConstant
	Units    int               // OpDense output features
	Conv     cutlass.ConvShape // OpConv2D
	Act      cutlass.Activation
	Pool     PoolAttrs
	Eps      float64       // OpBatchNorm
	PadTo    int           // OpPadChannels / OpSliceChannels target channels
	ToLayout tensor.Layout // OpLayoutTransform

	// FilterScale, set on an OpConv2D by FoldBatchNorm, is a factor per
	// output channel that the kernel's filter pack multiplies into the
	// weight operand (cutlass.Conv2D.FilterScale): the weight constant
	// stays the source tensor. Never written in place: Rebatch and
	// CastPrecision clones share it.
	FilterScale []float32

	// Epilogue is attached to Dense/Conv2D nodes by the epilogue-fusion
	// pass; nil means the op runs with a default linear epilogue.
	Epilogue *cutlass.Epilogue

	// Chain holds the fused layers for persistent ops.
	Chain []ChainLayer

	// Folded marks glue ops (layout transforms, padding) that Bolt's
	// codegen folds into an adjacent templated kernel so they cost no
	// extra kernel launch (paper §3.2.3).
	Folded bool
}

// String renders a concise description.
func (n *Node) String() string {
	return fmt.Sprintf("%%%d = %s%s", n.ID, n.Op, n.Shape)
}

// IsAnchor reports whether the node is a GEMM/Conv compute anchor that
// Bolt can generate a templated kernel for.
func (n *Node) IsAnchor() bool {
	switch n.Op {
	case OpDense, OpConv2D, OpPersistentGemm, OpPersistentConv:
		return true
	}
	return false
}

// Graph is a DAG of nodes in topological order ending at Output.
type Graph struct {
	Nodes  []*Node
	Inputs []*Node
	Output *Node

	// nextID is the low-water mark for NewID; it only grows, so IDs
	// handed out before a new node is spliced in can never be reissued.
	nextID int
}

// NewID returns a node ID distinct from every node already in the
// graph and from every ID this graph has handed out before. Passes
// must use it for the nodes they create: the memory planner and the
// slot-indexed executor key state by node ID, so a collision would
// silently alias two values.
func (g *Graph) NewID() int {
	id := g.nextID
	for _, n := range g.Nodes {
		if n.ID >= id {
			id = n.ID + 1
		}
	}
	g.nextID = id + 1
	return id
}

// Validate checks topological ordering and input resolution.
func (g *Graph) Validate() error {
	seen := make(map[int]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if !seen[in.ID] {
				return fmt.Errorf("relay: node %s uses %s before definition", n, in)
			}
		}
		if seen[n.ID] {
			return fmt.Errorf("relay: duplicate node id %d", n.ID)
		}
		seen[n.ID] = true
	}
	if g.Output == nil || !seen[g.Output.ID] {
		return fmt.Errorf("relay: output node missing from graph")
	}
	return nil
}

// Consumers returns a map from node ID to the nodes that consume it,
// in node order. The lists are counted first and carved out of one
// backing slice, each capped at its own length, so appending to a list
// reallocates it instead of overwriting its neighbour.
func (g *Graph) Consumers() map[int][]*Node {
	counts := make(map[int]int, len(g.Nodes))
	total := 0
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			counts[in.ID]++
			total++
		}
	}
	backing := make([]*Node, total)
	c := make(map[int][]*Node, len(counts))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			list, ok := c[in.ID]
			if !ok {
				k := counts[in.ID]
				list, backing = backing[:0:k], backing[k:]
			}
			c[in.ID] = append(list, n)
		}
	}
	return c
}

// CountOp returns how many nodes have the given op kind.
func (g *Graph) CountOp(op OpKind) int {
	c := 0
	for _, n := range g.Nodes {
		if n.Op == op {
			c++
		}
	}
	return c
}

// rebuild re-derives the node list as a DFS-postorder topological sort
// from the output, which simultaneously drops dead nodes and repairs
// ordering after passes splice in nodes (e.g. a fused bias constant
// that was defined after its new consumer).
func (g *Graph) rebuild() {
	visited := make(map[int]bool)
	order := make([]*Node, 0, len(g.Nodes))
	var visit func(n *Node)
	visit = func(n *Node) {
		if visited[n.ID] {
			return
		}
		visited[n.ID] = true
		for _, in := range n.Inputs {
			visit(in)
		}
		order = append(order, n)
	}
	// Keep graph inputs alive even if dead-code eliminated paths no
	// longer reach them (callers still feed them).
	for _, in := range g.Inputs {
		visit(in)
	}
	visit(g.Output)
	g.Nodes = order
}
