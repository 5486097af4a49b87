package cutlass

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// smallConfig is a valid config whose tiles are small enough for quick
// functional tests.
func smallConfig() GemmConfig {
	return GemmConfig{
		TB:     Shape3{64, 64, 32},
		Warp:   Shape3{32, 32, 32},
		Inst:   Shape3{16, 8, 8},
		Stages: 2, SwizzleLog: 1,
		AlignA: 8, AlignB: 8, AlignC: 8,
		Op: gpu.OpClassTensorOp, DType: tensor.FP16,
	}
}

func randMat(t *testing.T, seed int64, r, c int) *tensor.Tensor {
	t.Helper()
	m := tensor.New(tensor.FP16, r, c)
	m.FillRandom(seed, 1)
	return m
}

func TestGemmMatchesReference(t *testing.T) {
	d := gpu.T4()
	g, err := NewGemm(smallConfig(), DefaultEpilogue(), d)
	if err != nil {
		t.Fatal(err)
	}
	a := randMat(t, 1, 48, 64)
	b := randMat(t, 2, 64, 32)
	got := g.RunInto(nil, a, b, nil)
	want := ReferenceGemm(a, b, nil, DefaultEpilogue())
	if !tensor.AllClose(got, want, 1e-2, 1e-3) {
		t.Errorf("gemm deviates from reference: max diff %g", tensor.MaxAbsDiff(got, want))
	}
}

func TestGemmBiasActivationEpilogues(t *testing.T) {
	d := gpu.T4()
	a := randMat(t, 3, 32, 40)
	b := randMat(t, 4, 40, 24)
	bias := randMat(t, 5, 1, 24)
	bias = tensor.Reshape(bias, 24)
	for _, act := range []Activation{ActIdentity, ActReLU, ActGELU, ActHardswish, ActSoftplus, ActSigmoid} {
		epi := BiasActivation(act)
		g, err := NewGemm(smallConfig(), epi, d)
		if err != nil {
			t.Fatal(err)
		}
		got := g.RunInto(nil, a, b, bias)
		want := ReferenceGemm(a, b, bias, epi)
		if !tensor.AllClose(got, want, 1e-2, 1e-3) {
			t.Errorf("%s epilogue deviates: max diff %g", act, tensor.MaxAbsDiff(got, want))
		}
	}
}

func TestGemmFP32Output(t *testing.T) {
	d := gpu.T4()
	epi := DefaultEpilogue()
	epi.OutDType = tensor.FP32
	g, err := NewGemm(smallConfig(), epi, d)
	if err != nil {
		t.Fatal(err)
	}
	a := randMat(t, 11, 16, 16)
	b := randMat(t, 12, 16, 16)
	out := g.RunInto(nil, a, b, nil)
	if out.DType() != tensor.FP32 {
		t.Error("output dtype conversion not honored")
	}
}

func TestGemmShapePanics(t *testing.T) {
	d := gpu.T4()
	g, _ := NewGemm(smallConfig(), DefaultEpilogue(), d)
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	a := randMat(t, 13, 16, 32)
	bBad := randMat(t, 14, 16, 16) // K mismatch
	expectPanic("k mismatch", func() { g.RunInto(nil, a, bBad, nil) })
	bUnaligned := randMat(t, 15, 32, 15) // N=15 violates align 8
	expectPanic("alignment", func() { g.RunInto(nil, a, bUnaligned, nil) })
	biasBad := randMat(t, 16, 1, 7)
	bOK := randMat(t, 17, 32, 16)
	gb, _ := NewGemm(smallConfig(), BiasActivation(ActReLU), d)
	expectPanic("bias length", func() { gb.RunInto(nil, a, bOK, tensor.Reshape(biasBad, 7)) })
}

func TestDescResources(t *testing.T) {
	d := gpu.T4()
	g, _ := NewGemm(smallConfig(), DefaultEpilogue(), d)
	k := g.Desc(d, 1024, 1024, 512)
	if k.GridBlocks != 16*16 {
		t.Errorf("grid = %d, want 256", k.GridBlocks)
	}
	if k.ThreadsPerBlock != 128 {
		t.Errorf("threads = %d", k.ThreadsPerBlock)
	}
	if k.FLOPs < 2*1024*1024*512 {
		t.Error("FLOPs must include the main loop")
	}
	if k.OpClass != gpu.OpClassTensorOp || k.DType != tensor.FP16 || k.AlignmentElems != 8 {
		t.Error("desc metadata wrong")
	}
}

func TestBiggerTilesWinOnBigGemm(t *testing.T) {
	d := gpu.T4()
	big, _ := NewGemm(stdConfig(), DefaultEpilogue(), d)
	small, _ := NewGemm(smallConfig(), DefaultEpilogue(), d)
	m, n, k := 4096, 4096, 4096
	if big.Time(d, m, n, k) >= small.Time(d, m, n, k) {
		t.Error("128x128 tiles should beat 64x64 on a huge GEMM")
	}
}

func TestSmallTilesWinOnSmallGemm(t *testing.T) {
	d := gpu.T4()
	big, _ := NewGemm(stdConfig(), DefaultEpilogue(), d)
	small, _ := NewGemm(smallConfig(), DefaultEpilogue(), d)
	// 256x256: only 4 big tiles -> SM starvation.
	if small.Time(d, 256, 256, 1024) >= big.Time(d, 256, 256, 1024) {
		t.Error("small tiles should win on a small GEMM (wave quantization)")
	}
}

func TestA100NearPeak(t *testing.T) {
	// Paper §3.2.3: generated FP16 GEMM reaches 300+ TFLOPS on A100,
	// >95% of the 312 TFLOPS limit. Our model must reproduce that for
	// a large, well-tiled GEMM.
	d := gpu.A100()
	cfg := GemmConfig{
		TB:     Shape3{256, 128, 32},
		Warp:   Shape3{64, 64, 32},
		Inst:   Shape3{16, 8, 16},
		Stages: 3, SwizzleLog: 2,
		AlignA: 8, AlignB: 8, AlignC: 8,
		Op: gpu.OpClassTensorOp, DType: tensor.FP16,
	}
	g, err := NewGemm(cfg, DefaultEpilogue(), d)
	if err != nil {
		t.Fatal(err)
	}
	m, n, k := 8192, 8192, 8192
	tflops := 2 * float64(m) * float64(n) * float64(k) / g.Time(d, m, n, k) / 1e12
	if tflops < 0.90*312 {
		t.Errorf("A100 big GEMM achieves %.0f TFLOPS, want >= 90%% of 312", tflops)
	}
	if tflops > 312 {
		t.Errorf("achieved %.0f TFLOPS exceeds hardware peak", tflops)
	}
}

func TestElementwiseDescIsMemoryBound(t *testing.T) {
	d := gpu.T4()
	k := ElementwiseDesc(d, 1280*3072, ActGELU, tensor.FP16)
	bd := d.Breakdown(k)
	if bd.Memory <= bd.Compute {
		t.Errorf("elementwise kernel should be memory bound: %+v", bd)
	}
}

// Property: GEMM is linear in A — gemm(a1+a2, b) == gemm(a1,b)+gemm(a2,b)
// within FP16 tolerance.
func TestGemmLinearityProperty(t *testing.T) {
	d := gpu.T4()
	g, _ := NewGemm(smallConfig(), Epilogue{OutDType: tensor.FP32}, d)
	f := func(seed int64) bool {
		a1 := tensor.New(tensor.FP16, 8, 16)
		a2 := tensor.New(tensor.FP16, 8, 16)
		b := tensor.New(tensor.FP16, 16, 8)
		a1.FillRandom(seed, 0.5)
		a2.FillRandom(seed+1, 0.5)
		b.FillRandom(seed+2, 0.5)
		sum := a1.Clone()
		for i, v := range a2.Data() {
			sum.Data()[i] += v
		}
		sum.Quantize()
		d1 := g.RunInto(nil, a1, b, nil)
		d2 := g.RunInto(nil, a2, b, nil)
		ds := g.RunInto(nil, sum, b, nil)
		for i := range ds.Data() {
			if math.Abs(float64(ds.Data()[i]-(d1.Data()[i]+d2.Data()[i]))) > 0.05 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: identity weights make GEMM a copy.
func TestGemmIdentityProperty(t *testing.T) {
	d := gpu.T4()
	g, _ := NewGemm(smallConfig(), DefaultEpilogue(), d)
	eye := tensor.New(tensor.FP16, 16, 16)
	for i := 0; i < 16; i++ {
		eye.Set(1, i, i)
	}
	a := randMat(t, 20, 24, 16)
	out := g.RunInto(nil, a, eye, nil)
	if tensor.MaxAbsDiff(out, a) != 0 {
		t.Error("A x I != A")
	}
}

func TestActivationFunctions(t *testing.T) {
	cases := []struct {
		act  Activation
		x    float32
		want float64
		tol  float64
	}{
		{ActReLU, -1, 0, 0},
		{ActReLU, 2, 2, 0},
		{ActGELU, 0, 0, 1e-6},
		{ActGELU, 100, 100, 1e-3},
		{ActHardswish, -4, 0, 0},
		{ActHardswish, 4, 4, 0},
		{ActHardswish, 0, 0, 0},
		{ActHardswish, 1, 1.0 * 4 / 6, 1e-6},
		{ActSoftplus, 0, math.Log(2), 1e-6},
		{ActSoftplus, 30, 30, 1e-4},
		{ActSigmoid, 0, 0.5, 1e-6},
		{ActIdentity, -7.5, -7.5, 0},
	}
	for _, c := range cases {
		if got := c.act.Apply(c.x); math.Abs(float64(got)-c.want) > c.tol {
			t.Errorf("%s(%g) = %g, want %g", c.act, c.x, got, c.want)
		}
	}
}

func TestGELUMonotoneNearOrigin(t *testing.T) {
	prev := ActGELU.Apply(-3)
	for x := float32(-2.9); x < 3; x += 0.1 {
		cur := ActGELU.Apply(x)
		if cur < prev-0.02 {
			t.Fatalf("GELU decreased sharply at %g", x)
		}
		prev = cur
	}
}

// directGemm is the plain loop: one float32 add chain per output in
// ascending k from +0, every product formed (no zero is skipped), then
// the epilogue's store. It is the bit-exact oracle for the kernel. The
// float32 conversion rounds each product, as the micro-kernel does, on
// an architecture whose compiler would otherwise fuse the multiply-add.
func directGemm(g *Gemm, a, b, bias *tensor.Tensor) *tensor.Tensor {
	m, k, n := a.Shape()[0], a.Shape()[1], b.Shape()[1]
	out := tensor.New(g.Epilogue.OutDType, m, n)
	ad, bd, od := a.Data(), b.Data(), out.Data()
	var biasd []float32
	if bias != nil {
		biasd = bias.Data()
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float32
			for kk := 0; kk < k; kk++ {
				sum += float32(ad[i*k+kk] * bd[kk*n+j])
			}
			var bv float32
			if biasd != nil {
				bv = biasd[j]
			}
			od[i*n+j] = g.Epilogue.store(sum, bv)
		}
	}
	if g.Epilogue.OutDType == tensor.INT8 {
		out.CalibrateScale()
	}
	return out
}

// gemmAt1 instantiates a GEMM at alignment 1, so any M, N and K launch.
func gemmAt1(t *testing.T, epi Epilogue) *Gemm {
	t.Helper()
	cfg := smallConfig()
	cfg.AlignA, cfg.AlignB, cfg.AlignC = 1, 1, 1
	g, err := NewGemm(cfg, epi, gpu.T4())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Property: the tiled kernel is bit-identical to the direct loop over
// row counts around the quad and the row block, column counts around
// the panel and the tile, K on and off a multiple of four, dense,
// half-zero and all-zero A, every output dtype and every epilogue
// source operand. It holds for the selected micro-kernel and for the
// Go body, which other architectures run.
func TestGemmBitIdenticalToDirectLoop(t *testing.T) {
	t.Run("selected body", checkGemmBitIdentical)
	t.Run("Go body", func(t *testing.T) { withGoMicroKernel(func() { checkGemmBitIdentical(t) }) })
}

func checkGemmBitIdentical(t *testing.T) {
	type shape struct{ m, n, k int }
	shapes := []shape{
		{1, 1, 1}, {8, 3, 4}, {9, 255, 5}, {8, 256, 8}, {9, 257, 13}, {17, 1030, 7}, {16, 512, 3}, {7, 513, 12},
	}
	rng := rand.New(rand.NewSource(20))
	edgeN := []int{1, 2, 3, 4, 5, 7, 8, 255, 256, 257, 511, 512, 515, 1030}
	for len(shapes) < 126 {
		n := 1 + rng.Intn(1030)
		if rng.Intn(2) == 0 {
			n = edgeN[rng.Intn(len(edgeN))]
		}
		shapes = append(shapes, shape{1 + rng.Intn(17), n, 1 + rng.Intn(13)})
	}
	dtypes := []tensor.DType{tensor.FP32, tensor.FP16, tensor.INT8}
	acts := []Activation{ActIdentity, ActReLU, ActGELU}
	for i, s := range shapes {
		epi := Epilogue{Act: acts[i%len(acts)], OutDType: dtypes[i%len(dtypes)]}
		a, b := randMat(t, int64(200+i), s.m, s.k), randMat(t, int64(400+i), s.k, s.n)
		var c *tensor.Tensor
		if i/3%2 == 1 { // a bias vector, else no source operand
			epi.BiasVector = true
			c = tensor.Reshape(randMat(t, int64(600+i), 1, s.n), s.n)
		}
		zeros := []float64{0, 0.5, 1}[i/9%3]
		for j, ad := 0, a.Data(); j < len(ad); j++ {
			if rng.Float64() < zeros {
				ad[j] = 0
			}
		}
		g := gemmAt1(t, epi)
		what := fmt.Sprintf("%dx%dx%d %v zeros=%v bias=%t", s.m, s.n, s.k, epi.OutDType, zeros, epi.BiasVector)
		sameBits(t, what, g.RunInto(nil, a, b, c), directGemm(g, a, b, c))
	}
}

// A zero activation is multiplied in, as in a convolution: an Inf or
// NaN weight row under zero activations, +0 in row 0 and -0 in row 2,
// makes those rows NaN in every column, whichever positions of a quad's
// run or of the partial panel the zeros hold, and every output matches
// the direct loop bit for bit.
func TestGemmMultipliesZeroActivations(t *testing.T) {
	const m, n, k = 3, 11, 9 // a partial quad, a partial panel
	nonFinite := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for _, dt := range []tensor.DType{tensor.FP32, tensor.FP16} {
		g := gemmAt1(t, Epilogue{OutDType: dt})
		for mask := 1; mask < 1<<k; mask++ {
			a, b := randMat(t, 1, m, k), randMat(t, 2, k, n)
			ad, bd := a.Data(), b.Data()
			for kk := 0; kk < k; kk++ {
				if mask>>kk&1 == 0 {
					continue
				}
				ad[kk] = 0 // row 0 is zero exactly where B is poisoned
				ad[2*k+kk] = float32(math.Copysign(0, -1))
				for j := 0; j < n; j++ {
					// One kind per column: two NaNs of different payloads
					// never meet, so the oracle comparison is exact.
					bd[kk*n+j] = nonFinite[j%len(nonFinite)]
				}
			}
			got := g.RunInto(nil, a, b, nil)
			want := directGemm(g, a, b, nil)
			sameBits(t, fmt.Sprintf("%v mask %09b", dt, mask), got, want)
			for j := 0; j < n; j++ {
				for _, i := range []int{0, 2} {
					if v := float64(got.At(i, j)); !math.IsNaN(v) {
						t.Fatalf("%v mask %09b: output (%d,%d) = %g, want NaN: a zero activation was skipped", dt, mask, i, j, v)
					}
				}
				if v := float64(got.At(1, j)); !math.IsNaN(v) && !math.IsInf(v, 0) {
					t.Fatalf("%v mask %09b: output (1,%d) = %g, want non-finite from the dense row", dt, mask, j, v)
				}
			}
		}
	}
}

// FuzzGemm checks the kernel against the direct loop on random M, N
// and K (quads, panels and k blocks whole and partial), epilogue
// source operand (none or a bias vector), activation and
// output dtype, with zero activations and Inf or NaN weights at random
// places, under the selected micro-kernel and the Go body, inline and
// split at GOMAXPROCS 1 and 2. The seed corpus in
// testdata/fuzz/FuzzGemm runs with the other tests;
// go test -run '^$' -fuzz FuzzGemm ./internal/cutlass/ explores. As in
// FuzzConv, a case has one kind of non-finite weight, so no sum sees
// two NaNs of different payloads.
func FuzzGemm(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, m, n, k uint16, zeros, nonFinite uint8) {
		mm, nn, kk := 1+int(m%24), 1+int(n%600), 1+int(k%400)
		pick := uint64(seed)
		epi := Epilogue{
			Act:      []Activation{ActIdentity, ActReLU, ActGELU}[pick%3],
			OutDType: []tensor.DType{tensor.FP32, tensor.FP16, tensor.INT8}[pick/3%3]}
		a, b := randMat(t, seed, mm, kk), randMat(t, seed+1, kk, nn)
		var c *tensor.Tensor
		if pick/18%2 == 1 {
			epi.BiasVector = true
			c = tensor.Reshape(randMat(t, seed+2, 1, nn), nn)
		}
		rng := rand.New(rand.NewSource(seed))
		ad, bd := a.Data(), b.Data()
		for i := range ad {
			if rng.Intn(8) < int(zeros%9) {
				ad[i] = 0
			}
		}
		for i := range int(nonFinite % 8) {
			v := float32(math.Inf(1 - 2*(i%2)))
			if nonFinite&8 != 0 {
				v = float32(math.NaN())
			}
			bd[rng.Intn(len(bd))] = v
		}
		g := gemmAt1(t, epi)
		want := directGemm(g, a, b, c)
		check := func(body string) {
			for _, procs := range []int{1, 2} {
				what := fmt.Sprintf("%dx%dx%d %v bias=%t, %s body at GOMAXPROCS %d", mm, nn, kk, epi.OutDType, epi.BiasVector, body, procs)
				got := atProcs(procs, func() *tensor.Tensor { return g.RunInto(nil, a, b, c) })
				sameBits(t, what, got, want)
			}
		}
		check("selected")
		withGoMicroKernel(func() { check("Go") })
	})
}

// One kernel launched with B1, then B2, then B1 again packs each tensor
// it is handed: every output matches the direct loop for its own
// weights.
func TestGemmRepacksOnNewWeights(t *testing.T) {
	g := gemmAt1(t, BiasActivation(ActReLU))
	a, bias := randMat(t, 21, 6, 40), tensor.Reshape(randMat(t, 22, 1, 20), 20)
	b1, b2 := randMat(t, 23, 40, 20), randMat(t, 24, 40, 20)
	for i, b := range []*tensor.Tensor{b1, b2, b1} {
		want := directGemm(g, a, b, bias)
		sameBits(t, fmt.Sprintf("launch %d", i), g.RunInto(nil, a, b, bias), want)
	}
}

// Eight goroutines make a fresh kernel's first launch at once. They may
// all pack B, but every output has the same bytes.
func TestGemmFirstLaunchConcurrent(t *testing.T) {
	g := gemmAt1(t, BiasActivation(ActReLU))
	a, b, bias := randMat(t, 5, 9, 200), randMat(t, 6, 200, 40), tensor.Reshape(randMat(t, 7, 1, 40), 40)
	want := directGemm(g, a, b, bias)
	outs := make([]*tensor.Tensor, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			outs[i] = g.RunInto(nil, a, b, bias)
		}()
	}
	close(start)
	wg.Wait()
	for i, out := range outs {
		sameBits(t, fmt.Sprintf("goroutine %d", i), out, want)
	}
}

// Gemm bytes do not depend on how parallelRows partitions the tiles:
// problems on both sides of the GEMM's split threshold, at the panel
// and row-block edges and with a single row cut into panels, agree with
// the direct loop at 1, 2 and 8 processors.
func TestGemmPartitionIndependent(t *testing.T) {
	cases := []struct {
		m, n, k int
		dt      tensor.DType
		split   bool
	}{
		{8, 256, 128, tensor.FP16, false},
		{8, 512, 511, tensor.FP16, false},
		{8, 512, 512, tensor.FP16, true},  // two panels, exactly the threshold
		{8, 1024, 256, tensor.INT8, true}, // four panels
		{1, 1024, 2048, tensor.FP32, true},
		{9, 257, 1024, tensor.FP16, true},   // two row blocks x two panels, the last of each one wide
		{17, 515, 256, tensor.FP32, true},   // nine tiles over eight processors
		{64, 16, 2048, tensor.FP16, true},   // row blocks only
		{1, 1000, 1280, tensor.FP16, false}, // the largest zoo classifier stays inline
	}
	for _, tc := range cases {
		if tc.m*tc.n*tc.k/gemmMACsPerConvMAC >= splitMACs != tc.split {
			t.Fatalf("%dx%dx%d is on the wrong side of the split threshold", tc.m, tc.n, tc.k)
		}
		g := gemmAt1(t, Epilogue{BiasVector: true, Act: ActGELU, OutDType: tc.dt})
		a, b, bias := randMat(t, 1, tc.m, tc.k), randMat(t, 2, tc.k, tc.n), randMat(t, 3, 1, tc.n)
		want := directGemm(g, a, b, bias)
		for _, procs := range []int{1, 2, 8} {
			got := atProcs(procs, func() *tensor.Tensor { return g.RunInto(nil, a, b, bias) })
			sameBits(t, fmt.Sprintf("%dx%dx%d at GOMAXPROCS %d", tc.m, tc.n, tc.k, procs), got, want)
		}
	}
}

// BenchmarkFunctionalGemm times RunInto on the BERT FFN layers at eight
// tokens, the largest zoo classifier, a square GEMM whose row blocks
// share one B panel, and the serving benchmarks' 16x16 Dense.
func BenchmarkFunctionalGemm(b *testing.B) {
	for _, bc := range []struct{ m, n, k int }{
		{8, 3072, 768}, {8, 768, 3072}, {1, 1000, 1280}, {256, 256, 256}, {1, 16, 16},
	} {
		b.Run(fmt.Sprintf("%dx%dx%d", bc.m, bc.n, bc.k), func(b *testing.B) {
			g, err := NewGemm(smallConfig(), BiasActivation(ActReLU), gpu.T4())
			if err != nil {
				b.Fatal(err)
			}
			a := tensor.New(tensor.FP16, bc.m, bc.k)
			w := tensor.New(tensor.FP16, bc.k, bc.n)
			bias := tensor.New(tensor.FP16, bc.n)
			a.FillRandom(1, 1)
			w.FillRandom(2, 1)
			bias.FillRandom(3, 1)
			dst := g.RunInto(nil, a, w, bias)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.RunInto(dst, a, w, bias)
			}
			macs := float64(bc.m) * float64(bc.n) * float64(bc.k)
			b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}

func BenchmarkDescPricing(b *testing.B) {
	d := gpu.T4()
	g, _ := NewGemm(stdConfig(), DefaultEpilogue(), d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Time(d, 1280, 3072, 768)
	}
}
