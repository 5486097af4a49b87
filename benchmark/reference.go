package main

import (
	"fmt"
	"math"

	"bolt"
	"bolt/internal/cutlass"
	"bolt/internal/relay"
	"bolt/internal/tensor"
)

// The reference is a naive float64 interpreter over an unoptimized
// relay graph as authored (NCHW activations, OHWI conv weights,
// row-major matrices). It shares no arithmetic with the system under
// test: no passes, no templated kernels, no FP16 rounding between
// operators, no arena. Outputs of the compiled module are accepted
// when they stay within refTolerance of it.

// refTolerance bounds max|got-want| / max|want| between a compiled
// module's output and the float64 reference. FP16 storage of every
// intermediate costs about 1e-3 per layer; 2e-2 leaves room for the
// deepest model the workloads run and is far below any wrong kernel.
const refTolerance = 2e-2

// refValue is one materialized tensor of the interpreter.
type refValue struct {
	shape []int
	data  []float64
}

// reference evaluates g on inputs and returns the output values in the
// output node's authored layout. It must run before bolt.Compile,
// which rewrites the graph in place.
func reference(g *relay.Graph, inputs map[string]*bolt.Tensor) ([]float64, error) {
	vals := make(map[int]refValue, len(g.Nodes))
	for _, n := range g.Nodes {
		if len(n.Shape) == 4 && n.Layout != tensor.LayoutNCHW && n.Op != relay.OpConstant {
			return nil, fmt.Errorf("reference: %s is %v, want an authored NCHW graph", n, n.Layout)
		}
		in := func(i int) refValue { return vals[n.Inputs[i].ID] }
		var v refValue
		switch n.Op {
		case relay.OpInput:
			t, ok := inputs[n.Name]
			if !ok {
				return nil, fmt.Errorf("reference: missing input %q", n.Name)
			}
			v = widen(t)
		case relay.OpConstant:
			v = widen(n.Value)
		case relay.OpDense:
			v = refDense(in(0), in(1))
		case relay.OpConv2D:
			v = refConv(in(0), in(1), n.Conv)
		case relay.OpBiasAdd:
			v = refPerChannel(in(0), func(c int, x float64) float64 { return x + in(1).data[c] })
		case relay.OpBatchNorm:
			ga, be, me, va := in(1).data, in(2).data, in(3).data, in(4).data
			v = refPerChannel(in(0), func(c int, x float64) float64 {
				return (x-me[c])/math.Sqrt(va[c]+n.Eps)*ga[c] + be[c]
			})
		case relay.OpActivation:
			v = refMap(in(0), func(x float64) float64 { return refActivation(n.Act, x) })
		case relay.OpAdd:
			a, b := in(0), in(1)
			v = refValue{shape: a.shape, data: make([]float64, len(a.data))}
			for i := range a.data {
				v.data[i] = a.data[i] + b.data[i]
			}
		case relay.OpMaxPool:
			v = refMaxPool(in(0), n.Pool)
		case relay.OpGlobalAvgPool:
			v = refGlobalAvgPool(in(0))
		case relay.OpFlatten:
			x := in(0)
			v = refValue{shape: []int{x.shape[0], len(x.data) / x.shape[0]}, data: x.data}
		case relay.OpSoftmax:
			v = refSoftmax(in(0))
		default:
			return nil, fmt.Errorf("reference: unsupported op %v", n.Op)
		}
		vals[n.ID] = v
	}
	return vals[g.Output.ID].data, nil
}

func widen(t *bolt.Tensor) refValue {
	d := t.Data()
	v := refValue{shape: append([]int(nil), t.Shape()...), data: make([]float64, len(d))}
	for i, x := range d {
		v.data[i] = float64(x)
	}
	return v
}

func refMap(x refValue, f func(float64) float64) refValue {
	v := refValue{shape: x.shape, data: make([]float64, len(x.data))}
	for i, e := range x.data {
		v.data[i] = f(e)
	}
	return v
}

// refPerChannel applies f with the element's channel index: dim 1 of an
// NCHW activation, the last dim of a matrix.
func refPerChannel(x refValue, f func(c int, x float64) float64) refValue {
	v := refValue{shape: x.shape, data: make([]float64, len(x.data))}
	channels, inner := x.shape[len(x.shape)-1], 1
	if len(x.shape) == 4 {
		channels, inner = x.shape[1], x.shape[2]*x.shape[3]
	}
	for i, e := range x.data {
		v.data[i] = f(i/inner%channels, e)
	}
	return v
}

func refActivation(a cutlass.Activation, x float64) float64 {
	switch a {
	case cutlass.ActReLU:
		return math.Max(0, x)
	case cutlass.ActGELU:
		return 0.5 * x * (1 + math.Tanh(math.Sqrt(2/math.Pi)*(x+0.044715*x*x*x)))
	case cutlass.ActHardswish:
		return x * math.Min(6, math.Max(0, x+3)) / 6
	case cutlass.ActSoftplus:
		return math.Log1p(math.Exp(x))
	case cutlass.ActSigmoid:
		return 1 / (1 + math.Exp(-x))
	}
	return x
}

// refDense is X(M×K)·W(K×N).
func refDense(x, w refValue) refValue {
	m, k, n := x.shape[0], x.shape[1], w.shape[1]
	v := refValue{shape: []int{m, n}, data: make([]float64, m*n)}
	for i := 0; i < m; i++ {
		row := v.data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			a := x.data[i*k+kk]
			wr := w.data[kk*n : (kk+1)*n]
			for j := range row {
				row[j] += a * wr[j]
			}
		}
	}
	return v
}

// refConv is a direct convolution of an NCHW activation with OHWI
// weights.
func refConv(x, w refValue, s cutlass.ConvShape) refValue {
	oh, ow := s.OutH(), s.OutW()
	v := refValue{shape: []int{s.N, s.OC, oh, ow}, data: make([]float64, s.N*s.OC*oh*ow)}
	for n := 0; n < s.N; n++ {
		for oc := 0; oc < s.OC; oc++ {
			out := v.data[(n*s.OC+oc)*oh*ow:][:oh*ow]
			for kh := 0; kh < s.KH; kh++ {
				for kw := 0; kw < s.KW; kw++ {
					for ic := 0; ic < s.IC; ic++ {
						wv := w.data[((oc*s.KH+kh)*s.KW+kw)*s.IC+ic]
						plane := x.data[(n*s.IC+ic)*s.H*s.W:][:s.H*s.W]
						// Output columns whose tap kw falls inside the image.
						jlo := max(0, (s.PadW-kw+s.StrideW-1)/s.StrideW)
						jhi := min(ow, (s.W-1+s.PadW-kw)/s.StrideW+1)
						for i := 0; i < oh; i++ {
							ih := i*s.StrideH - s.PadH + kh
							if ih < 0 || ih >= s.H {
								continue
							}
							base := ih*s.W - s.PadW + kw
							for j := jlo; j < jhi; j++ {
								out[i*ow+j] += wv * plane[base+j*s.StrideW]
							}
						}
					}
				}
			}
		}
	}
	return v
}

func refMaxPool(x refValue, p relay.PoolAttrs) refValue {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := (h+2*p.Pad-p.Kernel)/p.Stride+1, (w+2*p.Pad-p.Kernel)/p.Stride+1
	v := refValue{shape: []int{n, c, oh, ow}, data: make([]float64, n*c*oh*ow)}
	for nc := 0; nc < n*c; nc++ {
		plane := x.data[nc*h*w:][:h*w]
		for i := 0; i < oh; i++ {
			for j := 0; j < ow; j++ {
				best := math.Inf(-1)
				for kh := 0; kh < p.Kernel; kh++ {
					for kw := 0; kw < p.Kernel; kw++ {
						ih, iw := i*p.Stride-p.Pad+kh, j*p.Stride-p.Pad+kw
						if ih >= 0 && ih < h && iw >= 0 && iw < w {
							best = math.Max(best, plane[ih*w+iw])
						}
					}
				}
				v.data[(nc*oh+i)*ow+j] = best
			}
		}
	}
	return v
}

func refGlobalAvgPool(x refValue) refValue {
	n, c, hw := x.shape[0], x.shape[1], x.shape[2]*x.shape[3]
	v := refValue{shape: []int{n, c}, data: make([]float64, n*c)}
	for nc := range v.data {
		t := 0.0
		for _, e := range x.data[nc*hw:][:hw] {
			t += e
		}
		v.data[nc] = t / float64(hw)
	}
	return v
}

func refSoftmax(x refValue) refValue {
	cols := x.shape[len(x.shape)-1]
	v := refValue{shape: x.shape, data: make([]float64, len(x.data))}
	for r := 0; r < len(x.data)/cols; r++ {
		row := x.data[r*cols:][:cols]
		hi := math.Inf(-1)
		for _, e := range row {
			hi = math.Max(hi, e)
		}
		t := 0.0
		for j, e := range row {
			v.data[r*cols+j] = math.Exp(e - hi)
			t += v.data[r*cols+j]
		}
		for j := range row {
			v.data[r*cols+j] /= t
		}
	}
	return v
}

// divergence is max|got-want| over max|want|: the relative L-inf error
// of a compiled module's output against the reference.
func divergence(got []float32, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	var diff, scale float64
	for i, w := range want {
		g := float64(got[i])
		if math.IsNaN(g) {
			return math.Inf(1)
		}
		diff = math.Max(diff, math.Abs(g-w))
		scale = math.Max(scale, math.Abs(w))
	}
	if scale == 0 {
		return diff
	}
	return diff / scale
}

// digest is the bit-exact identity of an output: the 64-bit FNV-1a
// hash of its float32 words. It allocates nothing, so checking inside a
// measured window does not show in allocs_per_op.
func digest(data []float32) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range data {
		bits := math.Float32bits(x)
		for shift := 0; shift < 32; shift += 8 {
			h = (h ^ uint64(bits>>shift&0xff)) * 1099511628211
		}
	}
	return h
}
