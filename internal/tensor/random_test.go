package tensor

import (
	"math"
	"sync"
	"testing"
)

// eager is Random's definition: New, then FillRandom.
func eager(dt DType, seed int64, scale float32, shape ...int) *Tensor {
	t := New(dt, shape...)
	t.FillRandom(seed, scale)
	return t
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: value %d is %g, want %g", what, i, got[i], want[i])
		}
	}
}

func undrawn(t *Tensor) bool { return t.gen != nil && t.data == nil }

// TestRandomMatchesFillRandom: a seeded tensor's first read gives
// exactly New + FillRandom's bytes, for every dtype.
func TestRandomMatchesFillRandom(t *testing.T) {
	for _, dt := range []DType{FP16, FP32, INT8} {
		for _, c := range []struct {
			seed  int64
			scale float32
			shape []int
		}{{1, 0.1, []int{7}}, {42, 1, []int{3, 5}}, {-3, 200, []int{2, 3, 4, 5}}, {9, 0.1, []int{0, 4}}} {
			got := Random(dt, c.seed, c.scale, c.shape...)
			want := eager(dt, c.seed, c.scale, c.shape...)
			if got.Layout() != want.Layout() || !got.Shape().Equal(want.Shape()) || got.DType() != dt {
				t.Fatalf("%v %v: header %v, want %v", dt, c.shape, got, want)
			}
			sameBits(t, dt.String(), got.Data(), want.Data())
		}
	}
}

// TestRandomShapeDoesNotDraw: what the shape answers never draws.
func TestRandomShapeDoesNotDraw(t *testing.T) {
	r := Random(FP16, 5, 0.1, 64, 3, 3, 32)
	if r.NumElements() != 64*3*3*32 || r.Bytes() != 2*64*3*3*32 || !r.Shape().Equal(Shape{64, 3, 3, 32}) {
		t.Fatalf("header of %v is wrong", r)
	}
	_ = r.String()
	_ = r.Scale()
	if !undrawn(r) {
		t.Fatal("reading the shape drew the values")
	}
	r.Data()
	if undrawn(r) {
		t.Fatal("Data did not draw the values")
	}
}

// TestRandomValuePathsDraw: every value path of a seeded tensor sees
// the drawn values, as it would on the eager tensor.
func TestRandomValuePathsDraw(t *testing.T) {
	const seed, scale = 11, 0.5
	shape := []int{2, 3, 2, 8}
	paths := map[string]func(x *Tensor) []float32{
		"At": func(x *Tensor) []float32 { return []float32{x.At(1, 2, 1, 7)} },
		"Set": func(x *Tensor) []float32 {
			x.Set(3, 0, 0, 0, 0)
			return x.Data()
		},
		"Clone":          func(x *Tensor) []float32 { return x.Clone().Data() },
		"AsType":         func(x *Tensor) []float32 { return x.AsType(INT8).Data() },
		"Quantize":       func(x *Tensor) []float32 { x.Quantize(); return x.Data() },
		"CalibrateScale": func(x *Tensor) []float32 { x.CalibrateScale(); return []float32{x.Scale()} },
		"SetScale": func(x *Tensor) []float32 {
			x.SetScale(0.25)
			return x.Data()
		},
		"MaxAbsDiff": func(x *Tensor) []float32 {
			return []float32{float32(MaxAbsDiff(x, New(x.DType(), shape...)))}
		},
		"AllClose": func(x *Tensor) []float32 {
			if AllClose(x, New(x.DType(), shape...), 0, 0) {
				return []float32{1}
			}
			return []float32{0}
		},
		"SliceBatch": func(x *Tensor) []float32 { return SliceBatch(x, 1).Data() },
		"StripBatch": func(x *Tensor) []float32 { return StripBatch(x, 1).Data() },
		"PadBatch":   func(x *Tensor) []float32 { return PadBatch(x, 3).Data() },
		"StackBatch": func(x *Tensor) []float32 {
			return StackBatch([]*Tensor{Reshape(x, 1, 2*3*2*8)}).Data()
		},
		"ToNHWC":       func(x *Tensor) []float32 { return ToNHWCInto(nil, x).Data() },
		"Transpose2D":  func(x *Tensor) []float32 { return Transpose2D(Reshape(x, 6, 16)).Data() },
		"PadChannels":  func(x *Tensor) []float32 { return PadChannelsInto(nil, nhwc(x), 16).Data() },
		"SliceChannel": func(x *Tensor) []float32 { return SliceChannelsInto(nil, nhwc(x), 4).Data() },
	}
	for name, path := range paths {
		for _, dt := range []DType{FP16, FP32, INT8} {
			want := path(eager(dt, seed, scale, shape...))
			sameBits(t, name+" "+dt.String(), path(Random(dt, seed, scale, shape...)), want)
		}
	}
}

// nhwc relabels a 4-D tensor's values as NHWC without moving them.
func nhwc(x *Tensor) *Tensor {
	return View(x.DType(), LayoutNHWC, x.Data(), x.Shape()...)
}

// TestFillClaimsUndrawn: Fill and FillRandom on a seeded tensor that
// was never read give exactly their own bytes, and a later read does
// not draw over them.
func TestFillClaimsUndrawn(t *testing.T) {
	for _, dt := range []DType{FP16, FP32, INT8} {
		r := Random(dt, 3, 0.1, 4, 5)
		r.FillRandom(77, 2)
		sameBits(t, "FillRandom "+dt.String(), r.Data(), eager(dt, 77, 2, 4, 5).Data())

		r = Random(dt, 3, 0.1, 4, 5)
		r.Fill(1.2345)
		want := New(dt, 4, 5)
		want.Fill(1.2345)
		sameBits(t, "Fill "+dt.String(), r.Data(), want.Data())
	}
}

// TestRandomConcurrentFirstRead: goroutines reading a seeded tensor
// for the first time at once all get one slice holding the drawn
// bytes.
func TestRandomConcurrentFirstRead(t *testing.T) {
	const readers = 8
	want := eager(FP16, 21, 0.1, 256, 64).Data()
	r := Random(FP16, 21, 0.1, 256, 64)
	got := make([][]float32, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = r.Data()
		}()
	}
	close(start)
	wg.Wait()
	for i, d := range got {
		if &d[0] != &got[0][0] {
			t.Fatalf("reader %d got a different slice", i)
		}
		sameBits(t, "concurrent first read", d, want)
	}
}
