package rt

import (
	"fmt"
	"math"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/relay"
	"bolt/internal/tensor"
)

// The functions in this file implement the fallback ("TVM") operators:
// functional semantics plus a priced kernel descriptor. They are
// deliberately simple memory-bound SIMT kernels — exactly the ops BYOC
// leaves outside the Bolt subgraph.
//
// Every operator has one entry point, its destination-writing form
// (XxxInto): the executor passes a pre-planned arena view as dst, so
// the serving hot path performs no per-op allocation. A nil dst
// allocates.
// The elementwise kernels (bias-add, activation, add, batch-norm,
// softmax) are single-pass and index-aligned, so dst may alias the
// first operand's buffer — the in-place case the memory planner emits
// when that operand dies at the op.

// ElementwiseLikeDesc prices a memory-bound elementwise kernel over
// `elems` elements with `streams` tensor operands (reads) and one
// write.
func ElementwiseLikeDesc(name string, elems, streams int, flopsPer float64, dt tensor.DType) gpu.KernelDesc {
	threads := 256
	blocks := (elems + threads*4 - 1) / (threads * 4)
	if blocks == 0 {
		blocks = 1
	}
	return gpu.KernelDesc{
		Name:            name,
		GridBlocks:      blocks,
		ThreadsPerBlock: threads,
		RegsPerThread:   32,
		FLOPs:           flopsPer * float64(elems),
		GlobalLoadB:     float64(streams * elems * dt.Size()),
		GlobalStoreB:    float64(elems * dt.Size()),
		OpClass:         gpu.OpClassSIMT,
		DType:           dt,
		AlignmentElems:  8,
		IssueEff:        0.85,
		MemEff:          0.95,
	}
}

// likeInput returns dst, or a fresh tensor shaped like x when dst is
// nil.
func likeInput(dst, x *tensor.Tensor) *tensor.Tensor {
	if dst != nil {
		return dst
	}
	return tensor.NewWithLayout(x.DType(), x.Layout(), x.Shape()...)
}

// BiasAddInto broadcasts bias over the innermost (channel) dimension
// of an NHWC or 2-D x; dst may alias x.
func BiasAddInto(dst, x, bias *tensor.Tensor) *tensor.Tensor {
	out := likeInput(dst, x)
	d := out.Data()
	xd := x.Data()
	bd := bias.Data()
	c := len(bd)
	for i := range d {
		d[i] = xd[i] + bd[i%c]
	}
	out.Quantize()
	return out
}

// ActivationInto applies the nonlinearity elementwise; dst may alias
// x.
func ActivationInto(dst, x *tensor.Tensor, act cutlass.Activation) *tensor.Tensor {
	out := likeInput(dst, x)
	d := out.Data()
	for i, v := range x.Data() {
		d[i] = act.Apply(v)
	}
	out.Quantize()
	return out
}

// AddInto is elementwise addition; dst may alias a or b.
func AddInto(dst, a, b *tensor.Tensor) *tensor.Tensor {
	out := likeInput(dst, a)
	d := out.Data()
	ad, bd := a.Data(), b.Data()
	for i := range d {
		d[i] = ad[i] + bd[i]
	}
	out.Quantize()
	return out
}

// BatchNormInto applies inference-mode BN over the innermost (channel)
// axis of an NHWC or 2-D x; dst may alias x.
func BatchNormInto(dst, x, gamma, beta, mean, variance *tensor.Tensor, eps float64) *tensor.Tensor {
	out := likeInput(dst, x)
	d := out.Data()
	xd := x.Data()
	c := gamma.NumElements()
	scale := make([]float32, c)
	shift := make([]float32, c)
	for i := 0; i < c; i++ {
		s := gamma.Data()[i] / float32(math.Sqrt(float64(variance.Data()[i])+eps))
		scale[i] = s
		shift[i] = beta.Data()[i] - mean.Data()[i]*s
	}
	for i := range d {
		d[i] = xd[i]*scale[i%c] + shift[i%c]
	}
	out.Quantize()
	return out
}

// MaxPoolInto computes 2-D max pooling of an NHWC tensor; dst must
// not alias x. Channels are innermost: each output pixel's c-long row
// starts at -Inf and takes the elementwise max against the contiguous
// input row under each in-range tap, taps in (kh, kw) order.
func MaxPoolInto(dst, x *tensor.Tensor, p relay.PoolAttrs) *tensor.Tensor {
	s := x.Shape()
	n, h, w, c := s[0], s[1], s[2], s[3]
	oh := (h+2*p.Pad-p.Kernel)/p.Stride + 1
	ow := (w+2*p.Pad-p.Kernel)/p.Stride + 1
	out := dst
	if out == nil {
		out = tensor.NewWithLayout(x.DType(), tensor.LayoutNHWC, n, oh, ow, c)
	}
	xd, od := x.Data(), out.Data()
	neg := float32(math.Inf(-1))
	for in := 0; in < n; in++ {
		for io := 0; io < oh; io++ {
			for jo := 0; jo < ow; jo++ {
				best := od[((in*oh+io)*ow+jo)*c:][:c]
				for i := range best {
					best[i] = neg
				}
				for kh := 0; kh < p.Kernel; kh++ {
					ih := io*p.Stride - p.Pad + kh
					if ih < 0 || ih >= h {
						continue
					}
					for kw := 0; kw < p.Kernel; kw++ {
						iw := jo*p.Stride - p.Pad + kw
						if iw < 0 || iw >= w {
							continue
						}
						maxRow(best, xd[((in*h+ih)*w+iw)*c:][:c])
					}
				}
			}
		}
	}
	return out
}

// maxRow sets best[i] to x[i] where x[i] > best[i], the pooling loops'
// rule: a NaN is never taken, and of two equal values (+0 and -0
// included) the one already in best stays. Where the processor has
// AVX2, maxRowSIMD takes the row's whole 8-lane groups; the rest selects
// on the bits rather than branching, as which operand wins is
// data-dependent.
func maxRow(best, x []float32) {
	x = x[:len(best)]
	n := maxRowSIMD(best, x)
	best, x = best[n:], x[n:]
	for i, v := range x {
		var take uint32
		if v > best[i] {
			take = 1
		}
		keep := take - 1 // all ones unless v wins
		best[i] = math.Float32frombits(math.Float32bits(v)&^keep | math.Float32bits(best[i])&keep)
	}
}

// GlobalAvgPoolInto averages the spatial dims of an NHWC tensor to
// (N, C); dst must not alias x. Inner loops index raw data directly.
func GlobalAvgPoolInto(dst, x *tensor.Tensor) *tensor.Tensor {
	s := x.Shape()
	n, h, w, c := s[0], s[1], s[2], s[3]
	out := dst
	if out == nil {
		out = tensor.New(x.DType(), n, c)
	}
	xd, od := x.Data(), out.Data()
	inv := 1 / float32(h*w)
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			sum := float32(0)
			for i := 0; i < h*w; i++ {
				sum += xd[(in*h*w+i)*c+ic]
			}
			od[in*c+ic] = sum * inv
		}
	}
	out.Quantize()
	return out
}

// SoftmaxInto applies a numerically stable row softmax over the last
// dimension; dst may alias x.
func SoftmaxInto(dst, x *tensor.Tensor) *tensor.Tensor {
	s := x.Shape()
	cols := s[len(s)-1]
	rows := x.NumElements() / cols
	out := likeInput(dst, x)
	d := out.Data()
	xd := x.Data()
	if len(d) > 0 && len(xd) > 0 && &d[0] != &xd[0] {
		copy(d, xd)
	}
	for r := 0; r < rows; r++ {
		row := d[r*cols : (r+1)*cols]
		max := row[0]
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		for i, v := range row {
			e := math.Exp(float64(v - max))
			row[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range row {
			row[i] *= inv
		}
	}
	out.Quantize()
	return out
}

// FlattenInto reshapes to (N, rest). When the planner aliases dst to
// x's buffer (flatten is a pure reinterpretation), the copy
// degenerates to a no-op.
func FlattenInto(dst, x *tensor.Tensor) *tensor.Tensor {
	if dst == nil {
		n := x.Shape()[0]
		return tensor.Reshape(x, n, x.NumElements()/n)
	}
	d, xd := dst.Data(), x.Data()
	if len(d) > 0 && len(xd) > 0 && &d[0] != &xd[0] {
		copy(d, xd)
	}
	return dst
}

// PoolDesc prices a pooling kernel: each output element reads kernel^2
// inputs.
func PoolDesc(name string, outElems, kernel int, dt tensor.DType) gpu.KernelDesc {
	d := ElementwiseLikeDesc(name, outElems, 1, float64(kernel*kernel), dt)
	d.GlobalLoadB = float64(outElems * kernel * kernel * dt.Size())
	return d
}

// PadDesc prices the channel-padding copy kernel (Table 3's overhead:
// read the unpadded activation, write the padded one).
func PadDesc(inElems, outElems int, dt tensor.DType) gpu.KernelDesc {
	d := ElementwiseLikeDesc("pad_channels", outElems, 1, 0, dt)
	d.GlobalLoadB = float64(inElems * dt.Size())
	d.GlobalStoreB = float64(outElems * dt.Size())
	// The destination rows are aligned (that is the point); the
	// unaligned source rows cost some coalescing efficiency.
	d.AlignmentElems = 8
	d.MemEff = 0.8
	return d
}

func opName(n *relay.Node) string { return fmt.Sprintf("%s_%d", n.Op, n.ID) }
