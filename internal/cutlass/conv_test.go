package cutlass

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"bolt/internal/fp16"
	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

func convConfig() GemmConfig {
	c := smallConfig()
	c.AlignA, c.AlignB, c.AlignC = 8, 8, 8
	return c
}

func randNHWC(seed int64, n, h, w, c int) *tensor.Tensor {
	t := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNHWC, n, h, w, c)
	t.FillRandom(seed, 1)
	return t
}

func randOHWI(seed int64, oc, kh, kw, ic int) *tensor.Tensor {
	t := tensor.New(tensor.FP16, oc, kh, kw, ic)
	t.FillRandom(seed, 0.5)
	return t
}

// randFilterScale draws one factor per output channel, of either sign,
// with magnitudes from 2^-12 to 2^3: scaled FP16 weights land on
// subnormal halves and below 2^-24 as well as on normal ones.
func randFilterScale(rng *rand.Rand, oc int) []float32 {
	scale := make([]float32, oc)
	for i := range scale {
		scale[i] = float32(math.Ldexp(1+rng.Float64(), rng.Intn(15)-12))
		if rng.Intn(4) == 0 {
			scale[i] = -scale[i]
		}
	}
	return scale
}

// scaledFilter materializes the filter a FilterScale stands for, as
// the BatchNorm fold once wrote it: a fresh tensor with output channel
// c (w's outer dimension) multiplied by scale[c], each product formed
// in float32 and rounded once to w's dtype, an INT8 tensor
// recalibrated to the scaled range. It is the oracle for the scaled
// pack.
func scaledFilter(w *tensor.Tensor, scale []float32) *tensor.Tensor {
	out := tensor.NewLike(w)
	per := w.NumElements() / len(scale)
	for c, s := range scale {
		row := out.Data()[c*per : (c+1)*per]
		for j, v := range w.Data()[c*per : (c+1)*per] {
			row[j] = v * s
		}
		if w.DType() == tensor.FP16 {
			fp16.Quantize(row)
		}
	}
	out.CalibrateScale()
	return out
}

func TestConvShapeGeometry(t *testing.T) {
	s := Conv3x3(32, 56, 56, 64, 64, 1, 1)
	if s.OutH() != 56 || s.OutW() != 56 {
		t.Errorf("3x3 s1 p1 should preserve spatial dims, got %dx%d", s.OutH(), s.OutW())
	}
	s2 := Conv3x3(32, 56, 56, 64, 128, 2, 1)
	if s2.OutH() != 28 || s2.OutW() != 28 {
		t.Errorf("stride 2 should halve: got %dx%d", s2.OutH(), s2.OutW())
	}
	p := Conv1x1(32, 56, 56, 48, 48)
	if p.OutH() != 56 || p.OutW() != 56 || p.KH != 1 || p.PadH != 0 {
		t.Error("Conv1x1 geometry wrong")
	}
	m, n, k := s.ImplicitGemm()
	if m != 32*56*56 || n != 64 || k != 64*9 {
		t.Errorf("implicit gemm dims (%d,%d,%d)", m, n, k)
	}
	if s.FLOPs() != 2*float64(m)*float64(n)*float64(k) {
		t.Error("FLOPs wrong")
	}
}

func TestConvShapeValidate(t *testing.T) {
	good := Conv3x3(1, 8, 8, 8, 8, 1, 1)
	if err := good.Validate(); err != nil {
		t.Errorf("valid shape rejected: %v", err)
	}
	bad := good
	bad.StrideH = 0
	if bad.Validate() == nil {
		t.Error("zero stride accepted")
	}
	bad2 := good
	bad2.H = 1
	bad2.KH = 5
	bad2.PadH = 0
	if bad2.Validate() == nil {
		t.Error("empty output accepted")
	}
	bad3 := good
	bad3.PadW = -1
	if bad3.Validate() == nil {
		t.Error("negative pad accepted")
	}
}

func TestConvMatchesReference(t *testing.T) {
	d := gpu.T4()
	s := Conv3x3(2, 8, 8, 8, 16, 1, 1)
	conv, err := NewConv2D(s, convConfig(), DefaultEpilogue(), d)
	if err != nil {
		t.Fatal(err)
	}
	x := randNHWC(1, 2, 8, 8, 8)
	w := randOHWI(2, 16, 3, 3, 8)
	got := conv.RunInto(nil, x, w, nil)
	want := ReferenceConv2D(s, x, w, nil, DefaultEpilogue())
	if !tensor.AllClose(got, want, 1e-2, 1e-3) {
		t.Errorf("conv deviates from reference: %g", tensor.MaxAbsDiff(got, want))
	}
}

func TestConvStrideAndPad(t *testing.T) {
	d := gpu.T4()
	s := ConvShape{N: 1, H: 9, W: 9, IC: 8, OC: 8, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	conv, err := NewConv2D(s, convConfig(), DefaultEpilogue(), d)
	if err != nil {
		t.Fatal(err)
	}
	x := randNHWC(3, 1, 9, 9, 8)
	w := randOHWI(4, 8, 3, 3, 8)
	got := conv.RunInto(nil, x, w, nil)
	if !got.Shape().Equal(tensor.Shape{1, 5, 5, 8}) {
		t.Fatalf("output shape %v, want (1,5,5,8)", got.Shape())
	}
	want := ReferenceConv2D(s, x, w, nil, DefaultEpilogue())
	if !tensor.AllClose(got, want, 1e-2, 1e-3) {
		t.Errorf("strided conv deviates: %g", tensor.MaxAbsDiff(got, want))
	}
}

func TestConvBiasEpilogue(t *testing.T) {
	d := gpu.T4()
	s := Conv1x1(1, 6, 6, 8, 8)
	for _, act := range []Activation{ActReLU, ActHardswish, ActGELU, ActSoftplus} {
		conv, err := NewConv2D(s, convConfig(), BiasActivation(act), d)
		if err != nil {
			t.Fatal(err)
		}
		x := randNHWC(5, 1, 6, 6, 8)
		w := randOHWI(6, 8, 1, 1, 8)
		bias := tensor.New(tensor.FP16, 8)
		bias.FillRandom(7, 1)
		got := conv.RunInto(nil, x, w, bias)
		want := ReferenceConv2D(s, x, w, bias, BiasActivation(act))
		if !tensor.AllClose(got, want, 1e-2, 1e-3) {
			t.Errorf("%s conv epilogue deviates: %g", act, tensor.MaxAbsDiff(got, want))
		}
	}
}

func TestConv1x1IsPointwiseGemm(t *testing.T) {
	// A 1x1 conv over NHWC is exactly a GEMM with M=N*H*W.
	d := gpu.T4()
	s := Conv1x1(2, 4, 4, 16, 8)
	conv, _ := NewConv2D(s, convConfig(), DefaultEpilogue(), d)
	x := randNHWC(8, 2, 4, 4, 16)
	w := randOHWI(9, 8, 1, 1, 16)
	got := conv.RunInto(nil, x, w, nil)

	g, _ := NewGemm(convConfig(), DefaultEpilogue(), d)
	a := tensor.Reshape(x, 2*4*4, 16)
	// Weights OHWI (8,1,1,16) -> (8,16); GEMM needs K x N = 16 x 8.
	wm := tensor.Transpose2D(tensor.Reshape(w, 8, 16))
	want := g.RunInto(nil, a, wm, nil)
	if tensor.MaxAbsDiff(tensor.Reshape(got, 32, 8), want) != 0 {
		t.Error("1x1 conv != equivalent GEMM")
	}
}

func TestConvAlignmentRules(t *testing.T) {
	d := gpu.T4()
	// IC=3 (first conv layer) cannot use alignment 8.
	s := Conv3x3(1, 8, 8, 3, 8, 1, 1)
	conv, err := NewConv2D(s, convConfig(), DefaultEpilogue(), d)
	if err != nil {
		t.Fatal(err)
	}
	if conv.SupportsProblem() {
		t.Error("IC=3 must not satisfy alignment 8")
	}
	cfg := convConfig()
	cfg.AlignA, cfg.AlignB = 1, 1
	conv2, _ := NewConv2D(s, cfg, DefaultEpilogue(), d)
	if !conv2.SupportsProblem() {
		t.Error("alignment 1 must accept IC=3")
	}
}

func TestConvDescPricing(t *testing.T) {
	d := gpu.T4()
	s := Conv3x3(32, 56, 56, 64, 64, 1, 1)
	cfg := stdConfig()
	conv, _ := NewConv2D(s, cfg, DefaultEpilogue(), d)
	desc := conv.Desc(d)
	m, n, k := s.ImplicitGemm()
	if desc.FLOPs < 2*float64(m)*float64(n)*float64(k) {
		t.Error("conv FLOPs must cover the implicit GEMM")
	}
	// Implicit-GEMM conv must price below the equivalent explicit GEMM's
	// im2col traffic but above zero.
	bd := d.Breakdown(desc)
	if bd.Total <= 0 {
		t.Error("conv time must be positive")
	}
	// Achieved TFLOPS plausible for T4 tensor cores.
	tflops := desc.FLOPs / bd.Total / 1e12
	if tflops > 65 {
		t.Errorf("conv achieves %f TFLOPS > peak", tflops)
	}
}

func TestConvAlignmentAffectsSpeed(t *testing.T) {
	d := gpu.T4()
	// Memory-heavy conv: unaligned (align 2) vs aligned (align 8).
	s8 := Conv3x3(32, 20, 26, 48, 32, 1, 1)
	cfg8 := stdConfig()
	conv8, _ := NewConv2D(s8, cfg8, DefaultEpilogue(), d)

	s2 := Conv3x3(32, 20, 26, 46, 32, 1, 1)
	cfg2 := stdConfig()
	cfg2.AlignA, cfg2.AlignB, cfg2.AlignC = 2, 2, 2
	conv2, _ := NewConv2D(s2, cfg2, DefaultEpilogue(), d)

	// Despite doing slightly more work (48 vs 46 channels), the aligned
	// kernel should be faster — this is Table 3's padding premise.
	if conv8.Time(d) >= conv2.Time(d) {
		t.Errorf("aligned conv (%.3gus) should beat unaligned (%.3gus)",
			conv8.Time(d)*1e6, conv2.Time(d)*1e6)
	}
}

// directConv is the loop RunInto used before the tiled implicit GEMM:
// one float32 add chain per output in (kh, kw, ic) order, taps outside
// the input skipped. It stays as the bit-exact oracle for the kernel.
// The float32 conversion rounds each product, as the micro-kernel does, on an
// architecture whose compiler would otherwise fuse the multiply-add.
func directConv(c *Conv2D, x, w, bias *tensor.Tensor) *tensor.Tensor {
	s := c.Shape
	oh, ow := s.OutH(), s.OutW()
	out := tensor.NewWithLayout(c.Epilogue.OutDType, tensor.LayoutNHWC, s.N, oh, ow, s.OC)
	xd, wd, od := x.Data(), w.Data(), out.Data()
	var bd []float32
	if bias != nil {
		bd = bias.Data()
	}
	for in := 0; in < s.N; in++ {
		for io := 0; io < oh; io++ {
			for jo := 0; jo < ow; jo++ {
				for oc := 0; oc < s.OC; oc++ {
					var sum float32
					for kh := 0; kh < s.KH; kh++ {
						ih := io*s.StrideH - s.PadH + kh
						if ih < 0 || ih >= s.H {
							continue
						}
						for kw := 0; kw < s.KW; kw++ {
							iw := jo*s.StrideW - s.PadW + kw
							if iw < 0 || iw >= s.W {
								continue
							}
							xoff := ((in*s.H+ih)*s.W + iw) * s.IC
							woff := ((oc*s.KH+kh)*s.KW + kw) * s.IC
							for ic := 0; ic < s.IC; ic++ {
								sum += float32(xd[xoff+ic] * wd[woff+ic])
							}
						}
					}
					var cv float32
					if bd != nil {
						cv = bd[oc]
					}
					v := c.Epilogue.apply(sum, cv)
					if c.Epilogue.OutDType == tensor.FP16 {
						v = fp16.ToFloat32(fp16.FromFloat32(v))
					}
					od[((in*oh+io)*ow+jo)*s.OC+oc] = v
				}
			}
		}
	}
	if c.Epilogue.OutDType == tensor.INT8 {
		out.CalibrateScale()
	}
	return out
}

// sameBits fails the test at the first element of got whose bit
// pattern differs from want's (NaNs compare by payload, not by ==).
func sameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) || got.Scale() != want.Scale() {
		t.Fatalf("%s: %d elements scale %g, want %d scale %g", what, len(gd), got.Scale(), len(wd), want.Scale())
	}
	for i := range gd {
		if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
			t.Fatalf("%s: element %d is %g (%#x), want %g (%#x)", what, i,
				gd[i], math.Float32bits(gd[i]), wd[i], math.Float32bits(wd[i]))
		}
	}
}

// convCase instantiates shape s at alignment 1 (so IC = 3 and odd OC
// launch) with seeded operands.
func convCase(t *testing.T, seed int64, s ConvShape, epi Epilogue, withBias bool) (c *Conv2D, x, w, bias *tensor.Tensor) {
	t.Helper()
	cfg := smallConfig()
	cfg.AlignA, cfg.AlignB, cfg.AlignC = 1, 1, 1
	c, err := NewConv2D(s, cfg, epi, gpu.T4())
	if err != nil {
		t.Fatalf("%+v: %v", s, err)
	}
	x = randNHWC(seed, s.N, s.H, s.W, s.IC)
	w = randOHWI(seed+1, s.OC, s.KH, s.KW, s.IC)
	if withBias {
		bias = tensor.New(tensor.FP16, s.OC)
		bias.FillRandom(seed+2, 1)
	}
	return c, x, w, bias
}

// Property: the tiled kernel is bit-identical to the direct loop over
// strides, paddings (including taps that fall wholly outside the
// input), rectangular kernels, IC and OC off a multiple of four, odd
// widths, OC past one filter panel and one tile, narrow inputs whose
// quads carry four different tap runs, pixel counts past one tile row
// block and every output dtype, and it multiplies zero activations in:
// an in-range Inf or NaN weight over a zero input gives NaN, as in the
// direct loop. It holds for the selected micro-kernel and for the Go
// body, which other architectures run.
func TestConvBitIdenticalToDirectLoop(t *testing.T) {
	t.Run("selected body", checkConvBitIdentical)
	t.Run("Go body", func(t *testing.T) { withGoMicroKernel(func() { checkConvBitIdentical(t) }) })
}

func checkConvBitIdentical(t *testing.T) {
	shapes := []ConvShape{
		{N: 1, H: 16, W: 16, IC: 3, OC: 8, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}, // stem, alignment 1
		{N: 2, H: 9, W: 9, IC: 8, OC: 6, KH: 1, KW: 1, StrideH: 2, StrideW: 2},                     // 1x1 strided, OC off the tile
		{N: 1, H: 5, W: 7, IC: 4, OC: 9, KH: 3, KW: 5, StrideH: 1, StrideW: 1, PadH: 1, PadW: 2},   // KH != KW, OW odd
		{N: 1, H: 2, W: 2, IC: 16, OC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},  // OH = 2: every pixel clips its taps differently
		{N: 1, H: 3, W: 4, IC: 2, OC: 5, KH: 1, KW: 2, StrideH: 1, StrideW: 1, PadH: 3, PadW: 3},   // border pixels see padding only
	}
	rng := rand.New(rand.NewSource(16))
	for len(shapes) < 120 {
		s := ConvShape{N: 1 + rng.Intn(2), H: 1 + rng.Intn(10), W: 1 + rng.Intn(10),
			IC: []int{1, 3, 8, 13}[rng.Intn(4)], OC: 1 + rng.Intn(13),
			KH: 1 + rng.Intn(4), KW: 1 + rng.Intn(4),
			StrideH: 1 + rng.Intn(2), StrideW: 1 + rng.Intn(2),
			PadH: rng.Intn(4), PadW: rng.Intn(4)}
		if s.Validate() == nil {
			shapes = append(shapes, s)
		}
	}
	for len(shapes) < 180 { // whole and partial filter panels over inputs at most 5 wide
		s := ConvShape{N: 1 + rng.Intn(2), H: 1 + rng.Intn(6), W: 1 + rng.Intn(5),
			IC: []int{1, 3, 8, 13}[rng.Intn(4)], OC: []int{16, 17, 31, 33, 48}[rng.Intn(5)],
			KH: 1 + rng.Intn(4), KW: 1 + rng.Intn(4),
			StrideH: 1 + rng.Intn(2), StrideW: 1 + rng.Intn(2),
			PadH: rng.Intn(4), PadW: rng.Intn(4)}
		if s.Validate() == nil {
			shapes = append(shapes, s)
		}
	}
	dtypes := []tensor.DType{tensor.FP32, tensor.FP16, tensor.INT8}
	acts := []Activation{ActIdentity, ActReLU, ActHardswish}
	for i, s := range shapes {
		withBias := i%2 == 0
		epi := Epilogue{Act: acts[i%len(acts)], OutDType: dtypes[i%len(dtypes)]}
		if withBias {
			epi.BiasVector = true
		}
		c, x, w, bias := convCase(t, int64(100+i), s, epi, withBias)
		sameBits(t, fmt.Sprintf("%+v %v bias=%v", s, epi.OutDType, withBias),
			c.RunInto(nil, x, w, bias), directConv(c, x, w, bias))
	}

	panels := []ConvShape{
		Conv3x3(1, 3, 3, 4, 257, 1, 1), // OC one past a panel
		Conv3x3(1, 5, 5, 3, 300, 2, 1), // second panel partial, IC 3
		Conv1x1(1, 3, 3, 8, 512),       // two whole panels, 9 pixels
		{N: 2, H: 7, W: 5, IC: 5, OC: 7, KH: 3, KW: 2, StrideH: 1, StrideW: 2, PadH: 1, PadW: 1},    // 42 pixels: six row blocks
		{N: 1, H: 6, W: 6, IC: 13, OC: 260, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}, // groups of four straddle taps
	}
	for i, s := range panels {
		epi := Epilogue{BiasVector: true, Act: acts[i%len(acts)], OutDType: dtypes[i%len(dtypes)]}
		c, x, w, bias := convCase(t, int64(300+i), s, epi, true)
		sameBits(t, fmt.Sprintf("%+v %v", s, epi.OutDType), c.RunInto(nil, x, w, bias), directConv(c, x, w, bias))

		// Zero input pixel (0, 0) and give every output channel one
		// non-finite weight on the tap that reads it for output pixel
		// (0, 0): Inf for even channels, NaN for odd ones.
		for _, dt := range []tensor.DType{tensor.FP32, tensor.FP16} {
			epi := Epilogue{Act: acts[i%len(acts)], OutDType: dt}
			c, x, w, _ := convCase(t, int64(400+i), s, epi, false)
			clear(x.Data()[:s.IC])
			wd := w.Data()
			for oc := 0; oc < s.OC; oc++ {
				v := float32(math.Inf(1))
				if oc%2 == 1 {
					v = float32(math.NaN())
				}
				wd[((oc*s.KH+s.PadH)*s.KW+s.PadW)*s.IC] = v
			}
			got := c.RunInto(nil, x, w, nil)
			sameBits(t, fmt.Sprintf("%+v %v non-finite weights", s, dt), got, directConv(c, x, w, nil))
			for oc, v := range got.Data()[:s.OC] {
				if !math.IsNaN(float64(v)) {
					t.Fatalf("%+v %v: output (0,0,%d) = %g, want NaN: a zero activation was skipped", s, dt, oc, v)
				}
			}
		}
	}
}

// FuzzConv checks the kernel against the direct loop on random
// geometry (batch, input size, channels, kernel, stride, padding),
// output dtype and activation, with Inf or NaN weights on random taps,
// under the selected micro-kernel and the Go body. Half the seeds also
// give the kernel a FilterScale (randFilterScale) over an FP16, FP32 or
// INT8 filter; the direct loop then runs over scaledFilter's
// materialized weights. The seed corpus in testdata/fuzz/FuzzConv runs
// with the other tests; go test -run '^$' -fuzz FuzzConv
// ./internal/cutlass/ explores. A case has one kind of non-finite
// weight, ±Inf or NaN, so no sum sees two NaNs of different payloads:
// which survives is the adder's operand order, which Go leaves to the
// compiler (the fuzzer's coverage instrumentation flips it in the
// direct loop).
func FuzzConv(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, n, h, w, ic, oc, kh, kw, stride, pad, nonFinite uint8) {
		s := ConvShape{N: 1 + int(n%2), H: 1 + int(h%12), W: 1 + int(w%12),
			IC: 1 + int(ic%16), OC: 1 + int(oc%64), KH: 1 + int(kh%5), KW: 1 + int(kw%5),
			StrideH: 1 + int(stride%3), StrideW: 1 + int(stride/3%3),
			PadH: int(pad % 4), PadW: int(pad / 4 % 4)}
		if s.Validate() != nil {
			return
		}
		pick := uint64(seed)
		epi := Epilogue{BiasVector: true,
			Act:      []Activation{ActIdentity, ActReLU, ActHardswish}[pick%3],
			OutDType: []tensor.DType{tensor.FP32, tensor.FP16, tensor.INT8}[pick/3%3]}
		c, x, wt, bias := convCase(t, seed, s, epi, true)
		rng := rand.New(rand.NewSource(seed))
		wd := wt.Data()
		for i := range int(nonFinite % 8) {
			v := float32(math.Inf(1 - 2*(i%2)))
			if nonFinite&8 != 0 {
				v = float32(math.NaN())
			}
			wd[rng.Intn(len(wd))] = v
		}
		direct := wt
		if pick/9%2 == 1 {
			wt = wt.AsType([]tensor.DType{tensor.FP16, tensor.FP32, tensor.INT8}[pick/18%3])
			c.FilterScale = randFilterScale(rng, s.OC)
			direct = scaledFilter(wt, c.FilterScale)
		}
		want := directConv(c, x, direct, bias)
		sameBits(t, fmt.Sprintf("%+v %v", s, epi.OutDType), c.RunInto(nil, x, wt, bias), want)
		withGoMicroKernel(func() {
			sameBits(t, fmt.Sprintf("%+v %v, Go body", s, epi.OutDType), c.RunInto(nil, x, wt, bias), want)
		})
	})
}

// One kernel launched with w1, then w2, then w1 again packs each tensor
// it is handed: every output matches the direct loop for its own
// weights.
func TestConvRepacksOnNewWeights(t *testing.T) {
	s := Conv3x3(1, 6, 6, 8, 12, 1, 1)
	c, x, w1, bias := convCase(t, 21, s, BiasActivation(ActReLU), true)
	_, _, w2, _ := convCase(t, 22, s, BiasActivation(ActReLU), true)
	for i, w := range []*tensor.Tensor{w1, w2, w1} {
		sameBits(t, fmt.Sprintf("launch %d", i), c.RunInto(nil, x, w, bias), directConv(c, x, w, bias))
	}
}

// Eight goroutines make a fresh kernel's first launch at once, on a
// plain filter and on one with a FilterScale. They may all pack the
// filter, but every output has the same bytes.
func TestConvFirstLaunchConcurrent(t *testing.T) {
	s := Conv3x3(1, 8, 8, 16, 40, 1, 1)
	for _, scaled := range []bool{false, true} {
		c, x, w, bias := convCase(t, 5, s, BiasActivation(ActReLU), true)
		direct := w
		if scaled {
			c.FilterScale = randFilterScale(rand.New(rand.NewSource(5)), s.OC)
			direct = scaledFilter(w, c.FilterScale)
		}
		want := directConv(c, x, direct, bias)
		outs := make([]*tensor.Tensor, 8)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range outs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				outs[i] = c.RunInto(nil, x, w, bias)
			}()
		}
		close(start)
		wg.Wait()
		for i, out := range outs {
			sameBits(t, fmt.Sprintf("scaled=%v goroutine %d", scaled, i), out, want)
		}
	}
}

// An Inf or NaN weight on a tap that lies in the padding for some pixel
// must not touch that pixel: out-of-range taps are skipped, never
// multiplied by zero.
func TestConvSkipsPaddedTapsWithNonFiniteWeights(t *testing.T) {
	s := Conv3x3(1, 6, 6, 8, 8, 1, 1)
	for _, dt := range []tensor.DType{tensor.FP32, tensor.FP16} {
		c, x, w, _ := convCase(t, 7, s, Epilogue{OutDType: dt}, false)
		wd := w.Data()
		for oc := 0; oc < s.OC; oc++ {
			tap := oc * 3 * 3 * s.IC // (oc, kh 0, kw 0): padding for output pixel (0, 0)
			wd[tap] = float32(math.Inf(1))
			wd[tap+1] = float32(math.NaN())
		}
		got := c.RunInto(nil, x, w, nil)
		sameBits(t, dt.String(), got, directConv(c, x, w, nil))
		for oc, v := range got.Data()[:s.OC] {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Errorf("%v: output (0,0,%d) = %g: a padded tap reached the sum", dt, oc, v)
			}
		}
		if v := got.Data()[(1*6+1)*s.OC]; !math.IsNaN(float64(v)) {
			t.Errorf("%v: output (1,1,0) = %g, want NaN from the in-range tap", dt, v)
		}
	}
}

// atProcs runs f with GOMAXPROCS set to n.
func atProcs(n int, f func() *tensor.Tensor) *tensor.Tensor {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return f()
}

// Conv bytes do not depend on how parallelRows partitions the pixels:
// shapes on both sides of the work threshold, an OH = 2 layer included,
// agree across 1, 2 and 8 processors.
func TestConvPartitionIndependent(t *testing.T) {
	cases := []struct {
		s     ConvShape
		dt    tensor.DType
		split bool
	}{
		{ConvShape{N: 1, H: 8, W: 8, IC: 64, OC: 63, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, tensor.FP16, false},
		{ConvShape{N: 1, H: 8, W: 8, IC: 64, OC: 64, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, tensor.FP16, true},
		{Conv3x3(1, 2, 2, 64, 64, 1, 1), tensor.FP32, false},
		{Conv3x3(1, 2, 2, 128, 128, 1, 1), tensor.FP32, true},
		{Conv3x3(1, 9, 9, 16, 20, 2, 1), tensor.INT8, false},
		{Conv3x3(2, 9, 7, 32, 36, 1, 1), tensor.INT8, true},
	}
	for _, tc := range cases {
		m, n, k := tc.s.ImplicitGemm()
		if m*n*k >= splitMACs != tc.split {
			t.Fatalf("%v: %d MACs is on the wrong side of splitMACs %d", tc.s, m*n*k, splitMACs)
		}
		c, x, w, bias := convCase(t, 11, tc.s, Epilogue{BiasVector: true, OutDType: tc.dt}, true)
		want := directConv(c, x, w, bias)
		for _, procs := range []int{1, 2, 8} {
			got := atProcs(procs, func() *tensor.Tensor { return c.RunInto(nil, x, w, bias) })
			sameBits(t, fmt.Sprintf("%v at GOMAXPROCS %d", tc.s, procs), got, want)
		}
	}
}

// mallocsPerCall is testing.AllocsPerRun (integral average included, so
// a stray runtime allocation does not count) without its GOMAXPROCS(1)
// pin, which would force every call inline.
func mallocsPerCall(runs int, f func()) float64 {
	f() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// A warmed call into a destination allocates nothing, and splitting it
// across the pool costs no allocation either.
func TestSplitCallAllocatesNoMoreThanInline(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c, x, w, bias := convCase(t, 3, Conv3x3(1, 8, 8, 32, 32, 1, 1), BiasActivation(ActReLU), true)
	cdst := c.RunInto(nil, x, w, bias)
	g, _ := NewGemm(smallConfig(), DefaultEpilogue(), gpu.T4())
	a, b := randMat(t, 1, 8, 512), randMat(t, 2, 512, 512) // one row block cut into two panels
	gdst := g.RunInto(nil, a, b, nil)
	for name, call := range map[string]func(){
		"conv": func() { c.RunInto(cdst, x, w, bias) },
		"gemm": func() { g.RunInto(gdst, a, b, nil) },
	} {
		inline := testing.AllocsPerRun(50, call)
		split := mallocsPerCall(50, call)
		if split > inline || inline != 0 {
			t.Errorf("%s: %v allocs/call split, %v inline, want 0 and 0", name, split, inline)
		}
	}
}

// BenchmarkFunctionalConv times RunInto on the ResNet-18 layer shapes
// at a 64x64 input, batch 1, on RepVGG-A0@64's layers that hold most of
// its conv time (the 4x4 192-channel layer, run 13 times per image, and
// the M = 4 wide-OC stride-2 tails), and on servenet's two layers at
// batch 1 and 8, the narrowest channel panels the serving benchmark
// runs, where the epilogue and the segment cuts cost most. GFLOP/s is
// nominal: taps over the padding count, as in ConvShape.FLOPs.
func BenchmarkFunctionalConv(b *testing.B) {
	for _, bc := range []struct {
		name string
		s    ConvShape
	}{
		{"stem7x7s2", ConvShape{N: 1, H: 64, W: 64, IC: 3, OC: 64, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}},
		{"3x3s1", Conv3x3(1, 16, 16, 64, 64, 1, 1)},
		{"3x3s2", Conv3x3(1, 16, 16, 64, 128, 2, 1)},
		{"1x1s2", ConvShape{N: 1, H: 16, W: 16, IC: 64, OC: 128, KH: 1, KW: 1, StrideH: 2, StrideW: 2}},
		{"tail3x3oh2", Conv3x3(1, 2, 2, 512, 512, 1, 1)},
		{"repvgg4x4c192", Conv3x3(1, 4, 4, 192, 192, 1, 1)},
		{"repvggTail192to1280s2", Conv3x3(1, 4, 4, 192, 1280, 2, 1)},
		{"repvggTail256to512s2", Conv3x3(1, 4, 4, 256, 512, 2, 1)},
		{"servenet8to16", Conv3x3(1, 32, 32, 8, 16, 1, 1)},
		{"servenet16to32s2", Conv3x3(1, 16, 16, 16, 32, 2, 1)},
		{"servenet8to16b8", Conv3x3(8, 32, 32, 8, 16, 1, 1)},
		{"servenet16to32s2b8", Conv3x3(8, 16, 16, 16, 32, 2, 1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := smallConfig()
			cfg.AlignA, cfg.AlignB = 1, 1
			c, err := NewConv2D(bc.s, cfg, BiasActivation(ActReLU), gpu.T4())
			if err != nil {
				b.Fatal(err)
			}
			// Four inputs in turn, so that a branch on the data meets
			// outcomes it has not learned from the previous iteration.
			var xs [4]*tensor.Tensor
			for i := range xs {
				xs[i] = randNHWC(int64(1+i), bc.s.N, bc.s.H, bc.s.W, bc.s.IC)
			}
			w := randOHWI(2, bc.s.OC, bc.s.KH, bc.s.KW, bc.s.IC)
			bias := tensor.New(tensor.FP16, bc.s.OC)
			bias.FillRandom(3, 1)
			dst := c.RunInto(nil, xs[0], w, bias)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.RunInto(dst, xs[i%len(xs)], w, bias)
			}
			b.ReportMetric(bc.s.FLOPs()*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
