package relay

import "fmt"

// Rebatch clones the graph at a new leading batch dimension: every
// input and intermediate value has dim 0 rewritten from the source
// batch to the requested one, and convolution geometry follows. The
// source graph is not modified, and constants (weights, folded
// parameters) and a conv's FilterScale are shared by reference — a
// serving engine holding many batch variants of one model keeps a
// single set of parameter tensors, and folding a variant's BatchNorms
// writes no weight tensor (see FoldBatchNorm). Each compiled variant's
// kernels still pack their own panel-major copy of the weights on
// first launch, the fold applied while packing (see cutlass.Conv2D).
//
// The clone is a fresh graph, so the usual compilation pipeline
// (codegen.Build) can mutate it freely. This is how
// the serving engine manufactures batch-bucketed variants of one
// source model: new batch sizes are new workloads for the tuner
// (paper §2.1's dynamic-shape motivation), and the tunelog cache keeps
// any previously seen variant measurement-free.
//
// Rebatch requires the batch to be the leading dimension of every
// non-constant value, which holds for every layout the IR uses (NCHW,
// NHWC, row-major activations); a node whose leading extent differs
// from the graph's input batch is an error.
func Rebatch(g *Graph, batch int) (*Graph, error) {
	if batch < 1 {
		return nil, fmt.Errorf("relay: rebatch to non-positive batch %d", batch)
	}
	if len(g.Inputs) == 0 {
		return nil, fmt.Errorf("relay: rebatch needs a graph with inputs")
	}
	if len(g.Inputs[0].Shape) == 0 {
		return nil, fmt.Errorf("relay: rebatch input %s has no batch dimension", g.Inputs[0])
	}
	oldBatch := g.Inputs[0].Shape[0]

	clone := make(map[*Node]*Node, len(g.Nodes))
	ng := &Graph{nextID: g.nextID}
	for _, n := range g.Nodes {
		c := *n // shallow copy; immutable attrs carry over
		c.Inputs = make([]*Node, len(n.Inputs))
		for i, in := range n.Inputs {
			cin, ok := clone[in]
			if !ok {
				return nil, fmt.Errorf("relay: rebatch: node %s uses %s before definition", n, in)
			}
			c.Inputs[i] = cin
		}
		c.Shape = n.Shape.Clone()
		if n.Epilogue != nil {
			epi := *n.Epilogue
			c.Epilogue = &epi
		}
		if len(n.Chain) > 0 {
			c.Chain = append([]ChainLayer(nil), n.Chain...)
			for i := range c.Chain {
				c.Chain[i].Weight = clone[n.Chain[i].Weight]
				if n.Chain[i].Bias != nil {
					c.Chain[i].Bias = clone[n.Chain[i].Bias]
				}
				if n.Op == OpPersistentConv {
					c.Chain[i].Conv.N = batch
				}
			}
		}
		if n.Op != OpConstant {
			// Constants are batch-independent (and shared); everything
			// else carries the batch in its leading extent.
			if len(c.Shape) == 0 || c.Shape[0] != oldBatch {
				return nil, fmt.Errorf("relay: rebatch: node %s leading dim is not the batch %d", n, oldBatch)
			}
			c.Shape[0] = batch
			if n.Op == OpConv2D {
				c.Conv.N = batch
			}
		}
		clone[n] = &c
		ng.Nodes = append(ng.Nodes, &c)
	}
	for _, in := range g.Inputs {
		ng.Inputs = append(ng.Inputs, clone[in])
	}
	ng.Output = clone[g.Output]
	if err := ng.Validate(); err != nil {
		return nil, fmt.Errorf("relay: rebatch: %w", err)
	}
	return ng, nil
}
