package tensor

import "fmt"

// Batch stacking and slicing for the serving engine's dynamic batcher.
// Every layout the runtime uses stores the declared dim 0 outermost
// (NCHW/NHWC activations and row-major matrices alike carry the batch
// there), so one sample is a contiguous row block and stacking/slicing
// are straight copies.

// sampleElems returns the element count of one leading-dim sample.
func sampleElems(t *Tensor) int {
	if len(t.shape) == 0 || t.shape[0] == 0 {
		panic(fmt.Sprintf("tensor: no batch dimension in shape %v", t.shape))
	}
	return t.NumElements() / t.shape[0]
}

// StackBatch concatenates single-sample tensors (leading dim 1, equal
// shapes) into one batch tensor with leading dim len(samples) — the
// dynamic batcher's request-coalescing step.
func StackBatch(samples []*Tensor) *Tensor { return StackBatchPadded(samples, len(samples)) }

// StackBatchPadded is StackBatch into a batch of rows samples, the rows
// past len(samples) zero: PadBatch(StackBatch(samples), rows) in one
// allocation.
func StackBatchPadded(samples []*Tensor, rows int) *Tensor {
	if len(samples) == 0 || rows < len(samples) {
		panic(fmt.Sprintf("tensor: StackBatch of %d samples into %d rows", len(samples), rows))
	}
	first := samples[0]
	if len(first.shape) == 0 || first.shape[0] != 1 {
		panic(fmt.Sprintf("tensor: StackBatch sample shape %v must have leading dim 1", first.shape))
	}
	shape := first.shape.Clone()
	shape[0] = rows
	out := NewWithLayout(first.dtype, first.layout, shape...)
	out.scale = first.scale
	per := sampleElems(first)
	for i, s := range samples {
		if !s.shape.Equal(first.shape) || s.dtype != first.dtype || s.layout != first.layout {
			panic(fmt.Sprintf("tensor: StackBatch sample %d is %v, want %v", i, s, first))
		}
		copy(out.data[i*per:(i+1)*per], s.vals())
	}
	return out
}

// PadBatch zero-pads a batch tensor's leading dim up to rows — the
// padded-dispatch step that lets a partial batch run on a larger
// compiled bucket's variant. Rows beyond the real samples are zero,
// which every row-independent operator maps to more (ignorable) zero
// rows. When the tensor already has rows samples it is returned as is.
func PadBatch(t *Tensor, rows int) *Tensor {
	if len(t.shape) == 0 || t.shape[0] > rows {
		panic(fmt.Sprintf("tensor: PadBatch shape %v does not fit in %d rows", t.shape, rows))
	}
	if t.shape[0] == rows {
		return t
	}
	shape := t.shape.Clone()
	shape[0] = rows
	out := NewWithLayout(t.dtype, t.layout, shape...)
	out.scale = t.scale
	copy(out.data, t.vals()) // the tail stays zero
	return out
}

// StripBatch copies the first rows samples of a batch tensor into a
// fresh tensor — the inverse of PadBatch on the output side, dropping
// the padding rows a padded run produced. The result always owns its
// data (like SliceBatch), so it stays valid after the batch tensor's
// arena is recycled.
func StripBatch(t *Tensor, rows int) *Tensor {
	if rows < 1 || len(t.shape) == 0 || rows > t.shape[0] {
		panic(fmt.Sprintf("tensor: StripBatch of %d rows out of range for shape %v", rows, t.shape))
	}
	shape := t.shape.Clone()
	shape[0] = rows
	out := &Tensor{shape: shape, dtype: t.dtype, layout: t.layout, scale: t.scale}
	per := sampleElems(t)
	out.data = append([]float32(nil), t.vals()[:rows*per]...)
	return out
}

// SliceBatch copies sample i of a batch tensor out into a fresh
// leading-dim-1 tensor — the batcher's response-splitting step. The
// result owns its data, so it stays valid after the batch tensor's
// arena is recycled.
func SliceBatch(t *Tensor, i int) *Tensor {
	if i < 0 || len(t.shape) == 0 || i >= t.shape[0] {
		panic(fmt.Sprintf("tensor: SliceBatch index %d out of range for shape %v", i, t.shape))
	}
	shape := t.shape.Clone()
	shape[0] = 1
	out := &Tensor{shape: shape, dtype: t.dtype, layout: t.layout, scale: t.scale}
	per := sampleElems(t)
	out.data = append([]float32(nil), t.vals()[i*per:(i+1)*per]...)
	return out
}
