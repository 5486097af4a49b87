// Package tensor provides dense n-dimensional tensors with explicit
// data types and memory layouts.
//
// It is the data substrate shared by the relay graph, the CUTLASS-style
// kernel templates, and the runtime executor. FP16 data is stored as
// raw binary16 words (see internal/fp16); compute paths decode to
// float32, mirroring how tensor cores consume half inputs and produce
// float accumulators.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"bolt/internal/fp16"
)

// DType enumerates the element types Bolt kernels understand.
type DType int

const (
	// FP16 is IEEE binary16, the dominant type in the paper's evaluation.
	FP16 DType = iota
	// FP32 is IEEE binary32.
	FP32
	// INT8 is a signed 8-bit integer (for mixed-precision extensions).
	INT8
)

// String returns the conventional lowercase name of the dtype.
func (d DType) String() string {
	switch d {
	case FP16:
		return "float16"
	case FP32:
		return "float32"
	case INT8:
		return "int8"
	default:
		return fmt.Sprintf("dtype(%d)", int(d))
	}
}

// Size returns the element size in bytes.
func (d DType) Size() int {
	switch d {
	case FP16:
		return 2
	case FP32:
		return 4
	case INT8:
		return 1
	default:
		return 0
	}
}

// Layout describes the logical dimension ordering of a 4-D activation
// tensor. CUTLASS convolutions require NHWC; most PyTorch models are
// authored in NCHW, which is what Bolt's layout-transformation pass
// rewrites.
type Layout int

const (
	// LayoutNCHW orders as batch, channels, height, width.
	LayoutNCHW Layout = iota
	// LayoutNHWC orders as batch, height, width, channels.
	LayoutNHWC
	// LayoutRowMajor marks a 2-D matrix stored row major.
	LayoutRowMajor
	// LayoutColMajor marks a 2-D matrix stored column major.
	LayoutColMajor
)

// String returns the conventional name of the layout.
func (l Layout) String() string {
	switch l {
	case LayoutNCHW:
		return "NCHW"
	case LayoutNHWC:
		return "NHWC"
	case LayoutRowMajor:
		return "RowMajor"
	case LayoutColMajor:
		return "ColMajor"
	default:
		return fmt.Sprintf("layout(%d)", int(l))
	}
}

// Shape is a tensor shape: a list of dimension extents.
type Shape []int

// NumElements returns the product of the dimensions (1 for a scalar shape).
func (s Shape) NumElements() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape { return append(Shape(nil), s...) }

// String renders the shape as "(d0, d1, ...)".
func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprint(d)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Tensor is a dense tensor. Data is always held as float32 for
// arithmetic convenience; when DType is FP16 every element is kept
// quantized through binary16 so numerics match a real half buffer.
type Tensor struct {
	shape  Shape
	dtype  DType
	layout Layout
	data   []float32
	// scale is the symmetric INT8 quantization step: stored values are
	// scale * q with q an integer in [-128, 127]. Zero means unset and
	// is treated as 1 (the plain integer grid), so zero-valued Tensor
	// literals keep their historical semantics.
	scale float32
	// gen is a seeded tensor's generator (see Random): data stays nil
	// until the first read draws it.
	gen *generator
}

// generator is the seed a Random tensor's values are drawn from, and
// the once that draws them.
type generator struct {
	once  sync.Once
	seed  int64
	scale float32
}

// New allocates a zero tensor of the given dtype and shape with the
// default layout for its rank (NCHW for 4-D, RowMajor otherwise).
func New(dtype DType, shape ...int) *Tensor {
	return NewWithLayout(dtype, defaultLayout(shape), shape...)
}

// NewWithLayout allocates a zero tensor with an explicit layout.
func NewWithLayout(dtype DType, layout Layout, shape ...int) *Tensor {
	t := header(dtype, layout, shape)
	t.alloc()
	return t
}

// Random returns a tensor holding exactly what New followed by
// FillRandom(seed, scale) would, but allocates nothing: the values are
// drawn on the first read, once, however many goroutines read at once.
// Shape, NumElements and Bytes never draw, so a graph of seeded
// weights can be built, planned and priced without holding its values.
func Random(dtype DType, seed int64, scale float32, shape ...int) *Tensor {
	t := header(dtype, defaultLayout(shape), shape)
	t.gen = &generator{seed: seed, scale: scale}
	return t
}

// defaultLayout is NCHW for a 4-D shape and RowMajor otherwise.
func defaultLayout(shape []int) Layout {
	if len(shape) == 4 {
		return LayoutNCHW
	}
	return LayoutRowMajor
}

// header returns a tensor without storage.
func header(dtype DType, layout Layout, shape []int) *Tensor {
	s := Shape(shape).Clone()
	if s.NumElements() < 0 {
		panic(fmt.Sprintf("tensor: negative shape %v", s))
	}
	return &Tensor{shape: s, dtype: dtype, layout: layout}
}

func (t *Tensor) alloc() { t.data = make([]float32, t.shape.NumElements()) }

// vals returns the tensor's values, drawing a seeded tensor's on the
// first call. Every read goes through it. The draw calls only
// unexported bodies: a public accessor would re-enter the once.
func (t *Tensor) vals() []float32 {
	if g := t.gen; g != nil {
		g.once.Do(func() {
			t.alloc()
			t.fillRandom(g.seed, g.scale)
		})
	}
	return t.data
}

// claim returns the storage of a tensor whose every element the caller
// is about to overwrite: a seeded tensor not yet drawn is allocated,
// not drawn.
func (t *Tensor) claim() []float32 {
	if g := t.gen; g != nil {
		g.once.Do(t.alloc)
	}
	return t.data
}

// FromData builds a tensor around the given backing data (not copied).
// The data length must match the shape. FP16 tensors are quantized.
func FromData(dtype DType, data []float32, shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if s.NumElements() != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), s))
	}
	t := &Tensor{shape: s, dtype: dtype, layout: defaultLayout(shape), data: data}
	t.quantize()
	return t
}

// NewLike allocates a zero tensor with t's shape, dtype, layout and
// INT8 scale.
func NewLike(t *Tensor) *Tensor {
	out := NewWithLayout(t.dtype, t.layout, t.shape...)
	out.scale = t.scale
	return out
}

// Shape returns the tensor's shape (shared, do not mutate).
func (t *Tensor) Shape() Shape { return t.shape }

// DType returns the element type.
func (t *Tensor) DType() DType { return t.dtype }

// Layout returns the memory layout tag.
func (t *Tensor) Layout() Layout { return t.layout }

// Data exposes the backing float32 slice (aliased, not copied).
func (t *Tensor) Data() []float32 { return t.vals() }

// NumElements returns the element count.
func (t *Tensor) NumElements() int { return t.shape.NumElements() }

// Bytes returns the size of the tensor in device memory.
func (t *Tensor) Bytes() int { return t.NumElements() * t.dtype.Size() }

// At returns the element at the given multi-index (row-major within the
// declared shape ordering).
func (t *Tensor) At(idx ...int) float32 {
	return t.vals()[t.offset(idx)]
}

// Set stores v at the given multi-index, quantizing for FP16 tensors.
func (t *Tensor) Set(v float32, idx ...int) {
	if t.dtype == FP16 {
		v = fp16.Round(v)
	}
	t.vals()[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: t.shape.Clone(), dtype: t.dtype, layout: t.layout, scale: t.scale}
	c.data = append([]float32(nil), t.vals()...)
	return c
}

// Scale returns the INT8 quantization step (1 when unset). It is
// meaningful only for INT8 tensors but always safe to read.
func (t *Tensor) Scale() float32 {
	if t.scale == 0 {
		return 1
	}
	return t.scale
}

// SetScale sets the INT8 quantization step without requantizing the
// data. Non-positive scales reset to the unset (grid-of-1) state.
func (t *Tensor) SetScale(s float32) {
	t.vals() // a seeded tensor's draw quantizes on the step it had
	if s <= 0 {
		s = 0
	}
	t.scale = s
}

// CalibrateScale chooses the symmetric per-tensor scale that maps the
// tensor's max-abs value onto the INT8 grid (maxAbs/127) and then
// quantizes onto that grid. All-zero tensors keep scale 1. Only INT8
// tensors are affected.
func (t *Tensor) CalibrateScale() {
	if t.dtype != INT8 {
		return
	}
	var maxAbs float32
	for _, v := range t.vals() {
		maxAbs = AbsMax(maxAbs, v)
	}
	t.scale = 0 // all zero: the unset scale, a step of 1
	if maxAbs != 0 {
		t.scale = INT8Step(maxAbs)
	}
	t.quantize()
}

// AbsMax returns the larger of m and |v|, the step of CalibrateScale's
// max-abs scan: a NaN v leaves m.
func AbsMax(m, v float32) float32 {
	if v < 0 {
		v = -v
	}
	if v > m {
		return v
	}
	return m
}

// INT8Step returns the step of the INT8 grid CalibrateScale picks for
// a tensor whose largest magnitude is maxAbs: maxAbs/127, or 1 for an
// all-zero tensor.
func INT8Step(maxAbs float32) float32 {
	if maxAbs == 0 {
		return 1
	}
	return maxAbs / 127
}

// QuantizeINT8 rounds every element of d onto the symmetric INT8 grid
// of step s > 0, clamped to [-128, 127] steps.
func QuantizeINT8(d []float32, s float32) {
	s64 := float64(s)
	for i, v := range d {
		q := math.Round(float64(v) / s64)
		if q > 127 {
			q = 127
		} else if q < -128 {
			q = -128
		}
		d[i] = float32(q * s64)
	}
}

// Quantize re-rounds all elements through the tensor's dtype. It is a
// no-op for FP32.
func (t *Tensor) Quantize() {
	t.vals()
	t.quantize()
}

func (t *Tensor) quantize() {
	switch t.dtype {
	case FP16:
		fp16.Quantize(t.data)
	case INT8:
		QuantizeINT8(t.data, t.Scale())
	}
}

// Fill sets every element to v (quantized per dtype).
func (t *Tensor) Fill(v float32) {
	if t.dtype == FP16 {
		v = fp16.Round(v)
	}
	d := t.claim()
	for i := range d {
		d[i] = v
	}
}

// FillRandom fills the tensor with deterministic pseudo-random values in
// [-scale, scale] using the given seed, then quantizes. Kernels are
// validated against reference implementations on this data.
func (t *Tensor) FillRandom(seed int64, scale float32) {
	t.claim()
	t.fillRandom(seed, scale)
}

func (t *Tensor) fillRandom(seed int64, scale float32) {
	rng := rand.New(rand.NewSource(seed))
	for i := range t.data {
		t.data[i] = (rng.Float32()*2 - 1) * scale
	}
	t.quantize()
}

// AsType returns a copy converted to the requested dtype. Converting
// to INT8 without a scale already set calibrates one from the data
// (maxAbs/127) — quantizing on the unset grid-of-1 would zero any
// tensor whose values sit below 0.5.
func (t *Tensor) AsType(d DType) *Tensor {
	c := t.Clone()
	c.dtype = d
	if d == INT8 && c.scale == 0 {
		c.CalibrateScale()
		return c
	}
	c.quantize()
	return c
}

// String summarizes the tensor without dumping all data.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor{%s %s %s, %d elems}", t.dtype, t.layout, t.shape, t.NumElements())
}

// MaxAbsDiff returns the maximum elementwise absolute difference between
// two same-shaped tensors.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !a.shape.Equal(b.shape) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.shape, b.shape))
	}
	var m float64
	ad, bd := a.vals(), b.vals()
	for i := range ad {
		d := math.Abs(float64(ad[i]) - float64(bd[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// AllClose reports whether every element of a is within atol + rtol*|b|
// of the corresponding element of b.
func AllClose(a, b *Tensor, rtol, atol float64) bool {
	if !a.shape.Equal(b.shape) {
		return false
	}
	ad, bd := a.vals(), b.vals()
	for i := range ad {
		x, y := float64(ad[i]), float64(bd[i])
		if math.IsNaN(x) || math.IsNaN(y) {
			return false
		}
		if math.Abs(x-y) > atol+rtol*math.Abs(y) {
			return false
		}
	}
	return true
}
