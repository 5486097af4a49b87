package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDTypeProperties(t *testing.T) {
	if FP16.Size() != 2 || FP32.Size() != 4 || INT8.Size() != 1 {
		t.Error("dtype sizes wrong")
	}
	if FP16.String() != "float16" || FP32.String() != "float32" || INT8.String() != "int8" {
		t.Error("dtype names wrong")
	}
}

func TestShapeBasics(t *testing.T) {
	s := Shape{2, 3, 4}
	if s.NumElements() != 24 {
		t.Errorf("NumElements = %d, want 24", s.NumElements())
	}
	if !s.Equal(Shape{2, 3, 4}) || s.Equal(Shape{2, 3}) || s.Equal(Shape{2, 3, 5}) {
		t.Error("Shape.Equal broken")
	}
	if s.String() != "(2, 3, 4)" {
		t.Errorf("Shape.String = %q", s.String())
	}
	c := s.Clone()
	c[0] = 9
	if s[0] != 2 {
		t.Error("Clone aliases")
	}
	if (Shape{}).NumElements() != 1 {
		t.Error("scalar shape should have 1 element")
	}
}

func TestNewDefaults(t *testing.T) {
	t4 := New(FP16, 1, 2, 3, 4)
	if t4.Layout() != LayoutNCHW {
		t.Errorf("4-D default layout = %v, want NCHW", t4.Layout())
	}
	t2 := New(FP32, 3, 5)
	if t2.Layout() != LayoutRowMajor {
		t.Errorf("2-D default layout = %v, want RowMajor", t2.Layout())
	}
	if t2.Bytes() != 15*4 || t4.Bytes() != 24*2 {
		t.Error("Bytes wrong")
	}
}

func TestAtSetOffsets(t *testing.T) {
	m := New(FP32, 2, 3)
	m.Set(7, 1, 2)
	if m.At(1, 2) != 7 {
		t.Error("At/Set round trip failed")
	}
	if m.Data()[1*3+2] != 7 {
		t.Error("row-major offset wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds index should panic")
		}
	}()
	m.At(2, 0)
}

func TestFP16SetQuantizes(t *testing.T) {
	m := New(FP16, 1)
	m.Set(2049, 0) // not representable in fp16; rounds to 2048
	if m.At(0) != 2048 {
		t.Errorf("FP16 Set should quantize: got %g", m.At(0))
	}
	f := New(FP32, 1)
	f.Set(2049, 0)
	if f.At(0) != 2049 {
		t.Error("FP32 Set must not quantize")
	}
}

func TestFromDataQuantizes(t *testing.T) {
	data := []float32{2049}
	tt := FromData(FP16, data, 1)
	if tt.At(0) != 2048 {
		t.Errorf("FromData FP16 should quantize, got %g", tt.At(0))
	}
}

func TestInt8Quantize(t *testing.T) {
	tt := FromData(INT8, []float32{1.4, -1.6, 200, -200}, 4)
	want := []float32{1, -2, 127, -128}
	for i, w := range want {
		if tt.Data()[i] != w {
			t.Errorf("INT8 quantize [%d] = %g, want %g", i, tt.Data()[i], w)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(FP32, 4)
	a.Fill(1)
	b := a.Clone()
	b.Set(9, 0)
	if a.At(0) != 1 {
		t.Error("Clone aliases data")
	}
}

func TestNewLikeCopiesTypeNotData(t *testing.T) {
	a := NewWithLayout(INT8, LayoutNHWC, 2, 3, 3, 4)
	a.FillRandom(1, 1)
	a.CalibrateScale()
	b := NewLike(a)
	if b.DType() != INT8 || b.Layout() != LayoutNHWC || !b.Shape().Equal(a.Shape()) || b.Scale() != a.Scale() {
		t.Fatalf("NewLike gave %v scale %v, want the type of %v scale %v", b, b.Scale(), a, a.Scale())
	}
	for _, v := range b.Data() {
		if v != 0 {
			t.Fatal("NewLike tensor is not zero")
		}
	}
	b.Shape()[0] = 9
	if a.Shape()[0] != 2 {
		t.Error("NewLike aliases the shape")
	}
	// An unset scale stays unset, so a later cast to INT8 calibrates.
	if c := NewLike(New(FP16, 4)); c.scale != 0 {
		t.Errorf("NewLike set scale %v on a tensor that had none", c.scale)
	}
}

func TestFillRandomDeterministic(t *testing.T) {
	a := New(FP16, 100)
	b := New(FP16, 100)
	a.FillRandom(42, 1)
	b.FillRandom(42, 1)
	if MaxAbsDiff(a, b) != 0 {
		t.Error("FillRandom not deterministic for equal seeds")
	}
	b.FillRandom(43, 1)
	if MaxAbsDiff(a, b) == 0 {
		t.Error("different seeds should differ")
	}
	for _, v := range a.Data() {
		if v < -1 || v > 1 {
			t.Fatalf("value %g out of scale", v)
		}
	}
}

func TestAllClose(t *testing.T) {
	a := FromData(FP32, []float32{1, 2, 3}, 3)
	b := FromData(FP32, []float32{1.0005, 2, 3}, 3)
	if !AllClose(a, b, 1e-3, 0) {
		t.Error("AllClose should accept within rtol")
	}
	if AllClose(a, b, 1e-5, 0) {
		t.Error("AllClose should reject beyond rtol")
	}
	c := FromData(FP32, []float32{1, 2}, 2)
	if AllClose(a, c, 1, 1) {
		t.Error("AllClose should reject shape mismatch")
	}
}

func TestLayoutRoundTrip(t *testing.T) {
	src := NewWithLayout(FP32, LayoutNCHW, 2, 3, 4, 5)
	src.FillRandom(7, 1)
	nhwc := ToNHWCInto(nil, src)
	if nhwc.Layout() != LayoutNHWC || !nhwc.Shape().Equal(Shape{2, 4, 5, 3}) {
		t.Fatalf("ToNHWC produced %v %v", nhwc.Layout(), nhwc.Shape())
	}
	back := ToNCHWInto(nil, nhwc)
	if MaxAbsDiff(src, back) != 0 {
		t.Error("NCHW->NHWC->NCHW is not identity")
	}
}

func TestLayoutElementMapping(t *testing.T) {
	src := NewWithLayout(FP32, LayoutNCHW, 1, 2, 2, 2)
	// Put channel index in the value so we can track the permutation.
	for c := 0; c < 2; c++ {
		for h := 0; h < 2; h++ {
			for w := 0; w < 2; w++ {
				src.Set(float32(c*100+h*10+w), 0, c, h, w)
			}
		}
	}
	nhwc := ToNHWCInto(nil, src)
	for c := 0; c < 2; c++ {
		for h := 0; h < 2; h++ {
			for w := 0; w < 2; w++ {
				if got := nhwc.At(0, h, w, c); got != float32(c*100+h*10+w) {
					t.Fatalf("NHWC(0,%d,%d,%d) = %g", h, w, c, got)
				}
			}
		}
	}
}

func TestPadSliceChannels(t *testing.T) {
	src := NewWithLayout(FP16, LayoutNHWC, 2, 3, 3, 3)
	src.FillRandom(9, 1)
	padded := PadChannelsInto(nil, src, 8)
	if !padded.Shape().Equal(Shape{2, 3, 3, 8}) {
		t.Fatalf("padded shape %v", padded.Shape())
	}
	// Padding region must be zero.
	for n := 0; n < 2; n++ {
		for h := 0; h < 3; h++ {
			for w := 0; w < 3; w++ {
				for c := 3; c < 8; c++ {
					if padded.At(n, h, w, c) != 0 {
						t.Fatalf("pad region nonzero at %d,%d,%d,%d", n, h, w, c)
					}
				}
			}
		}
	}
	back := SliceChannelsInto(nil, padded, 3)
	if MaxAbsDiff(src, back) != 0 {
		t.Error("pad/slice is not identity on valid region")
	}
}

func TestTranspose2D(t *testing.T) {
	m := FromData(FP32, []float32{1, 2, 3, 4, 5, 6}, 2, 3)
	tr := Transpose2D(m)
	if !tr.Shape().Equal(Shape{3, 2}) {
		t.Fatalf("transpose shape %v", tr.Shape())
	}
	if tr.At(2, 1) != m.At(1, 2) || tr.At(0, 1) != m.At(1, 0) {
		t.Error("transpose values wrong")
	}
	if MaxAbsDiff(Transpose2D(tr), m) != 0 {
		t.Error("double transpose is not identity")
	}
}

func TestReshape(t *testing.T) {
	m := New(FP32, 2, 6)
	m.FillRandom(1, 1)
	r := Reshape(m, 3, 4)
	if !r.Shape().Equal(Shape{3, 4}) {
		t.Fatalf("reshape shape %v", r.Shape())
	}
	for i := range m.Data() {
		if r.Data()[i] != m.Data()[i] {
			t.Fatal("reshape must preserve data order")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid reshape should panic")
		}
	}()
	Reshape(m, 5, 5)
}

// Property: layout round trip is the identity for random shapes.
func TestLayoutRoundTripProperty(t *testing.T) {
	f := func(seed int64, n, c, h, w uint8) bool {
		N, C, H, W := int(n%4)+1, int(c%9)+1, int(h%6)+1, int(w%6)+1
		src := NewWithLayout(FP32, LayoutNCHW, N, C, H, W)
		src.FillRandom(seed, 10)
		return MaxAbsDiff(src, ToNCHWInto(nil, ToNHWCInto(nil, src))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: PadChannels then SliceChannels is the identity.
func TestPadSliceProperty(t *testing.T) {
	f := func(seed int64, c, pad uint8) bool {
		C := int(c%16) + 1
		P := C + int(pad%8)
		src := NewWithLayout(FP16, LayoutNHWC, 1, 3, 3, C)
		src.FillRandom(seed, 1)
		return MaxAbsDiff(src, SliceChannelsInto(nil, PadChannelsInto(nil, src, P), C)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: transpose is an involution.
func TestTransposeInvolutionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		r, c := rng.Intn(8)+1, rng.Intn(8)+1
		m := New(FP32, r, c)
		m.FillRandom(int64(i), 5)
		if MaxAbsDiff(Transpose2D(Transpose2D(m)), m) != 0 {
			t.Fatal("transpose involution violated")
		}
	}
}
