package tensor

import "fmt"

// ToNHWCInto writes a 4-D NCHW tensor permuted to NHWC into out (which
// must not alias t's data); a nil out allocates. If the tensor is
// already NHWC it is copied unchanged. This is the reference semantics
// for the layout-transformation kernels Bolt folds into a model's first
// and last layers. It returns out.
func ToNHWCInto(out, t *Tensor) *Tensor {
	switch t.layout {
	case LayoutNHWC:
		if out == nil {
			return t.Clone()
		}
		copy(out.claim(), t.vals())
		return out
	case LayoutNCHW:
		n, c, h, w := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
		if out == nil {
			out = NewWithLayout(t.dtype, LayoutNHWC, n, h, w, c)
		}
		src := t.vals()
		dst := out.claim()
		for in := 0; in < n; in++ {
			for ic := 0; ic < c; ic++ {
				for ih := 0; ih < h; ih++ {
					srcRow := ((in*c+ic)*h + ih) * w
					for iw := 0; iw < w; iw++ {
						dst[((in*h+ih)*w+iw)*c+ic] = src[srcRow+iw]
					}
				}
			}
		}
		return out
	default:
		panic(fmt.Sprintf("tensor: ToNHWC on non-4D layout %v", t.layout))
	}
}

// ToNCHWInto writes a 4-D NHWC tensor permuted to NCHW into out (which
// must not alias t's data); a nil out allocates. If the tensor is
// already NCHW it is copied unchanged. It returns out.
func ToNCHWInto(out, t *Tensor) *Tensor {
	switch t.layout {
	case LayoutNCHW:
		if out == nil {
			return t.Clone()
		}
		copy(out.claim(), t.vals())
		return out
	case LayoutNHWC:
		n, h, w, c := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
		if out == nil {
			out = NewWithLayout(t.dtype, LayoutNCHW, n, c, h, w)
		}
		src := t.vals()
		dst := out.claim()
		for in := 0; in < n; in++ {
			for ih := 0; ih < h; ih++ {
				for iw := 0; iw < w; iw++ {
					srcRow := ((in*h+ih)*w + iw) * c
					for ic := 0; ic < c; ic++ {
						dst[((in*c+ic)*h+ih)*w+iw] = src[srcRow+ic]
					}
				}
			}
		}
		return out
	default:
		panic(fmt.Sprintf("tensor: ToNCHW on non-4D layout %v", t.layout))
	}
}

// PadChannelsInto writes an NHWC tensor with its channel dimension
// zero-padded up to newC into out (which must not alias t's data); a
// nil out allocates. This is the reference semantics of Bolt's
// automated kernel padding (Section 3.2.3): tensors whose channel count
// is not divisible by 8 are padded so alignment-8 (128-bit) vectorized
// access becomes legal. It returns out.
func PadChannelsInto(out, t *Tensor, newC int) *Tensor {
	if t.layout != LayoutNHWC {
		panic("tensor: PadChannels requires NHWC layout")
	}
	n, h, w, c := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
	if newC < c {
		panic(fmt.Sprintf("tensor: PadChannels shrinking %d -> %d", c, newC))
	}
	if newC == c {
		if out == nil {
			return t.Clone()
		}
		copy(out.claim(), t.vals())
		return out
	}
	if out == nil {
		out = NewWithLayout(t.dtype, LayoutNHWC, n, h, w, newC)
	}
	src, dst := t.vals(), out.claim()
	rows := n * h * w
	for r := 0; r < rows; r++ {
		dstRow := dst[r*newC : (r+1)*newC]
		copy(dstRow, src[r*c:(r+1)*c])
		// Arena buffers are recycled, so the pad lanes must be
		// re-zeroed on every execution.
		for i := c; i < newC; i++ {
			dstRow[i] = 0
		}
	}
	return out
}

// SliceChannelsInto writes an NHWC tensor keeping only the first newC
// channels into out (which must not alias t's data); a nil out
// allocates. It inverts PadChannelsInto on the valid region and returns
// out.
func SliceChannelsInto(out, t *Tensor, newC int) *Tensor {
	if t.layout != LayoutNHWC {
		panic("tensor: SliceChannels requires NHWC layout")
	}
	n, h, w, c := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
	if newC > c {
		panic(fmt.Sprintf("tensor: SliceChannels growing %d -> %d", c, newC))
	}
	if out == nil {
		out = NewWithLayout(t.dtype, LayoutNHWC, n, h, w, newC)
	}
	src, dst := t.vals(), out.claim()
	rows := n * h * w
	for r := 0; r < rows; r++ {
		copy(dst[r*newC:(r+1)*newC], src[r*c:r*c+newC])
	}
	return out
}

// Transpose2D returns the transpose of a 2-D tensor.
func Transpose2D(t *Tensor) *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D on rank-%d tensor", len(t.shape)))
	}
	r, c := t.shape[0], t.shape[1]
	out := New(t.dtype, c, r)
	src := t.vals()
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.data[j*r+i] = src[i*c+j]
		}
	}
	return out
}

// Reshape returns a view-copy of the tensor with a new shape of equal
// element count.
func Reshape(t *Tensor, shape ...int) *Tensor {
	s := Shape(shape)
	if s.NumElements() != t.NumElements() {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes element count", t.shape, s))
	}
	c := t.Clone()
	c.shape = s.Clone()
	if len(shape) != 4 {
		c.layout = LayoutRowMajor
	}
	return c
}
