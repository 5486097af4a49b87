package rt

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/relay"
	"bolt/internal/tensor"
)

func TestBiasAddRunLayouts(t *testing.T) {
	bias := tensor.FromData(tensor.FP32, []float32{1, 2}, 2)

	// NHWC: channel is the trailing dim.
	x2 := tensor.NewWithLayout(tensor.FP32, tensor.LayoutNHWC, 1, 2, 2, 2)
	out2 := BiasAddInto(nil, x2, bias)
	if out2.At(0, 1, 1, 0) != 1 || out2.At(0, 0, 0, 1) != 2 {
		t.Error("NHWC bias broadcast wrong")
	}
	// 2-D: feature is the trailing dim.
	x3 := tensor.New(tensor.FP32, 3, 2)
	out3 := BiasAddInto(nil, x3, bias)
	if out3.At(2, 0) != 1 || out3.At(0, 1) != 2 {
		t.Error("2-D bias broadcast wrong")
	}
}

func TestActivationAndAddRun(t *testing.T) {
	x := tensor.FromData(tensor.FP32, []float32{-1, 0, 2}, 3)
	relu := ActivationInto(nil, x, cutlass.ActReLU)
	if relu.At(0) != 0 || relu.At(2) != 2 {
		t.Error("ReLU wrong")
	}
	y := tensor.FromData(tensor.FP32, []float32{10, 20, 30}, 3)
	sum := AddInto(nil, x, y)
	if sum.At(0) != 9 || sum.At(2) != 32 {
		t.Error("Add wrong")
	}
	// Original tensors untouched.
	if x.At(0) != -1 {
		t.Error("ActivationInto/AddInto with a nil dst must not mutate inputs")
	}
}

func TestBatchNormRun(t *testing.T) {
	// One channel with gamma=2, beta=1, mean=3, var=4 (eps=0):
	// y = (x-3)/2*2 + 1 = x - 2.
	x := tensor.NewWithLayout(tensor.FP32, tensor.LayoutNHWC, 1, 2, 2, 1)
	x.Fill(5)
	one := func(v float32) *tensor.Tensor { return tensor.FromData(tensor.FP32, []float32{v}, 1) }
	out := BatchNormInto(nil, x, one(2), one(1), one(3), one(4), 0)
	if out.At(0, 0, 0, 0) != 3 {
		t.Errorf("BN output %g, want 3", out.At(0, 0, 0, 0))
	}
}

func TestMaxPoolRun(t *testing.T) {
	x := tensor.NewWithLayout(tensor.FP32, tensor.LayoutNHWC, 1, 4, 4, 1)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			x.Set(float32(i*4+j), 0, i, j, 0)
		}
	}
	out := MaxPoolInto(nil, x, relay.PoolAttrs{Kernel: 2, Stride: 2})
	if !out.Shape().Equal(tensor.Shape{1, 2, 2, 1}) {
		t.Fatalf("pool shape %v", out.Shape())
	}
	// Max of each 2x2 block.
	want := [][]float32{{5, 7}, {13, 15}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if out.At(0, i, j, 0) != want[i][j] {
				t.Errorf("pool[%d][%d] = %g, want %g", i, j, out.At(0, i, j, 0), want[i][j])
			}
		}
	}
	// Padded pooling must ignore out-of-bounds (-inf identity).
	padded := MaxPoolInto(nil, x, relay.PoolAttrs{Kernel: 3, Stride: 2, Pad: 1})
	if padded.At(0, 0, 0, 0) != 5 {
		t.Errorf("padded pool corner %g, want 5", padded.At(0, 0, 0, 0))
	}
}

// directMaxPool is the per-element pooling loop over an NHWC tensor,
// the oracle for MaxPoolInto: every output element walks its window in
// (kh, kw) order from -Inf and takes a value only when it is greater,
// so a NaN is never taken and of two equal zeros the first stays.
func directMaxPool(x *tensor.Tensor, p relay.PoolAttrs) []float32 {
	s := x.Shape()
	n, h, w, c := s[0], s[1], s[2], s[3]
	at := func(in, ih, iw, ic int) int { return ((in*h+ih)*w+iw)*c + ic }
	oh := (h+2*p.Pad-p.Kernel)/p.Stride + 1
	ow := (w+2*p.Pad-p.Kernel)/p.Stride + 1
	oat := func(in, io, jo, ic int) int { return ((in*oh+io)*ow+jo)*c + ic }
	xd, od := x.Data(), make([]float32, n*oh*ow*c)
	for in := range n {
		for io := range oh {
			for jo := range ow {
				for ic := range c {
					best := float32(math.Inf(-1))
					for kh := range p.Kernel {
						ih := io*p.Stride - p.Pad + kh
						if ih < 0 || ih >= h {
							continue
						}
						for kw := range p.Kernel {
							iw := jo*p.Stride - p.Pad + kw
							if iw < 0 || iw >= w {
								continue
							}
							if v := xd[at(in, ih, iw, ic)]; v > best {
								best = v
							}
						}
					}
					od[oat(in, io, jo, ic)] = best
				}
			}
		}
	}
	return od
}

// Property: MaxPoolInto gives the direct loop's bits over kernels 2 and 3, strides 1 to 3, padding 0 and 1 and channel
// counts from 1 to past a multiple of 16, on inputs dense in NaNs, ±0
// ties and -Inf, with maxRow's AVX2 body selected (where the host has
// it) and with the Go loop.
func TestMaxPoolMatchesDirectLoop(t *testing.T) {
	if !haveAVX2 {
		t.Log("no AVX2 body on this host: the Go loop is checked twice")
	}
	t.Run("selected body", checkMaxPoolMatchesDirectLoop)
	t.Run("Go loop", func(t *testing.T) {
		defer func(v bool) { haveAVX2 = v }(haveAVX2)
		haveAVX2 = false
		checkMaxPoolMatchesDirectLoop(t)
	})
}

func checkMaxPoolMatchesDirectLoop(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := math.Float32frombits(0x7FC00001)
	specials := []float32{nan, 0, negZero, float32(math.Inf(-1)), float32(math.Inf(1)), -1, 1, 2}
	rng := rand.New(rand.NewSource(40))
	for _, c := range []int{1, 3, 16, 17} {
		x := tensor.NewWithLayout(tensor.FP32, tensor.LayoutNHWC, 2, 7, 6, c)
		xd := x.Data()
		for i := range xd {
			if rng.Intn(4) == 0 {
				xd[i] = float32(rng.NormFloat64())
			} else {
				xd[i] = specials[rng.Intn(len(specials))]
			}
		}
		for _, k := range []int{2, 3} {
			for stride := 1; stride <= 3; stride++ {
				for pad := 0; pad <= 1; pad++ {
					p := relay.PoolAttrs{Kernel: k, Stride: stride, Pad: pad}
					got := MaxPoolInto(nil, x, p).Data()
					want := directMaxPool(x, p)
					if len(got) != len(want) {
						t.Fatalf("C=%d %+v: %d outputs, want %d", c, p, len(got), len(want))
					}
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("C=%d %+v: output %d is %#x, want %#x", c, p, i,
								math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	}
}

func TestGlobalAvgPoolRun(t *testing.T) {
	x := tensor.NewWithLayout(tensor.FP32, tensor.LayoutNHWC, 2, 2, 2, 3)
	x.Fill(4)
	out := GlobalAvgPoolInto(nil, x)
	if !out.Shape().Equal(tensor.Shape{2, 3}) {
		t.Fatalf("gap shape %v", out.Shape())
	}
	if out.At(1, 2) != 4 {
		t.Error("gap of constant tensor must be the constant")
	}
}

func TestSoftmaxRun(t *testing.T) {
	x := tensor.FromData(tensor.FP32, []float32{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	out := SoftmaxInto(nil, x)
	// Rows sum to 1; huge values must not overflow (stability).
	for r := 0; r < 2; r++ {
		sum := float32(0)
		for c := 0; c < 3; c++ {
			v := out.At(r, c)
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatal("softmax not numerically stable")
			}
			sum += v
		}
		if math.Abs(float64(sum)-1) > 1e-3 {
			t.Errorf("row %d sums to %g", r, sum)
		}
	}
	if !(out.At(0, 2) > out.At(0, 1) && out.At(0, 1) > out.At(0, 0)) {
		t.Error("softmax must be monotone in logits")
	}
}

func TestFlattenRun(t *testing.T) {
	x := tensor.New(tensor.FP16, 2, 3, 4)
	out := FlattenInto(nil, x)
	if !out.Shape().Equal(tensor.Shape{2, 12}) {
		t.Errorf("flatten shape %v", out.Shape())
	}
}

func TestDescsAreMemoryBound(t *testing.T) {
	d := gpu.T4()
	for _, desc := range []gpu.KernelDesc{
		ElementwiseLikeDesc("e", 1<<20, 2, 1, tensor.FP16),
		PoolDesc("p", 1<<18, 3, tensor.FP16),
		PadDesc(1<<20, (1<<20)+4096, tensor.FP16),
	} {
		bd := d.Breakdown(desc)
		if bd.Memory <= bd.Compute {
			t.Errorf("%s should be memory bound: %+v", desc.Name, bd)
		}
		if bd.Total <= 0 {
			t.Errorf("%s has non-positive time", desc.Name)
		}
	}
}

func TestModuleAccounting(t *testing.T) {
	d := gpu.T4()
	n1 := &relay.Node{ID: 0, Op: relay.OpInput, Name: "x", Shape: tensor.Shape{2}, DType: tensor.FP32}
	n2 := &relay.Node{ID: 1, Op: relay.OpActivation, Inputs: []*relay.Node{n1}, Shape: tensor.Shape{2}, DType: tensor.FP32}
	g := &relay.Graph{Nodes: []*relay.Node{n1, n2}, Inputs: []*relay.Node{n1}, Output: n2}
	in := tensor.FromData(tensor.FP32, []float32{-2, 3}, 2)
	m := &Module{
		Graph:  g,
		Device: d,
		Kernels: []Kernel{
			{Name: "in", Node: n1, Slot: 0, Launches: 0,
				Exec: func(env *Env, dst *tensor.Tensor) *tensor.Tensor { return env.Input("x") }},
			{Name: "act", Node: n2, Slot: 1, Launches: 1,
				Desc: ElementwiseLikeDesc("act", 2, 1, 1, tensor.FP32),
				Exec: func(env *Env, dst *tensor.Tensor) *tensor.Tensor {
					return ActivationInto(dst, env.Value(0), cutlass.ActReLU)
				}},
		},
	}
	out := m.Run(map[string]*tensor.Tensor{"x": in})
	if out.At(0) != 0 || out.At(1) != 3 {
		t.Error("module execution wrong")
	}
	if m.LaunchCount() != 1 {
		t.Errorf("launches = %d", m.LaunchCount())
	}
	if m.Time() != d.KernelTime(m.Kernels[1].Desc) {
		t.Error("Time must sum only launched kernels")
	}
	if m.Throughput(2) != 2/m.Time() {
		t.Error("Throughput wrong")
	}
	rows := m.Report()
	if len(rows) != 1 || rows[0].Percent != 100 {
		t.Errorf("report wrong: %+v", rows)
	}
}

// TestModulePaddedRunStripsToRealRows pins the padded-execution contract
// the serving scheduler relies on: run a zero-padded batch, strip it
// back to its real rows, and those rows are bit-identical to the
// reference executor's and to the unpadded values — the runtime's
// operators are row-independent along the batch dim.
func TestModulePaddedRunStripsToRealRows(t *testing.T) {
	d := gpu.T4()
	n1 := &relay.Node{ID: 0, Op: relay.OpInput, Name: "x", Shape: tensor.Shape{4, 2}, DType: tensor.FP32}
	n2 := &relay.Node{ID: 1, Op: relay.OpActivation, Inputs: []*relay.Node{n1}, Shape: tensor.Shape{4, 2}, DType: tensor.FP32}
	g := &relay.Graph{Nodes: []*relay.Node{n1, n2}, Inputs: []*relay.Node{n1}, Output: n2}
	m := &Module{
		Graph:  g,
		Device: d,
		Kernels: []Kernel{
			{Name: "in", Node: n1, Slot: 0,
				Exec: func(env *Env, dst *tensor.Tensor) *tensor.Tensor { return env.Input("x") }},
			{Name: "act", Node: n2, Slot: 1, Launches: 1,
				Desc: ElementwiseLikeDesc("act", 8, 1, 1, tensor.FP32),
				Exec: func(env *Env, dst *tensor.Tensor) *tensor.Tensor {
					return ActivationInto(dst, env.Value(0), cutlass.ActReLU)
				}},
		},
	}
	real2 := tensor.FromData(tensor.FP32, []float32{-2, 3, 5, -7}, 2, 2)
	padded := tensor.PadBatch(real2, 4)
	out := tensor.StripBatch(m.Run(map[string]*tensor.Tensor{"x": padded}), 2)
	if !out.Shape().Equal(tensor.Shape{2, 2}) {
		t.Fatalf("stripped shape %v, want (2, 2)", out.Shape())
	}
	oracle := m.RunUnplanned(map[string]*tensor.Tensor{"x": padded})
	for i := 0; i < 4; i++ {
		if out.Data()[i] != oracle.Data()[i] {
			t.Errorf("real row element %d = %g, want %g", i, out.Data()[i], oracle.Data()[i])
		}
	}
	want := []float32{0, 3, 5, 0}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Errorf("out[%d] = %g, want %g", i, out.Data()[i], v)
		}
	}
}

// chainModule builds a fresh hand-made module x -> relu -> +x ->
// softmax over a (rows, 8) input. The add and the softmax run in place
// over their first operand's buffer, so the arena recycles across
// kernels.
func chainModule(rows int) *Module {
	shape := tensor.Shape{rows, 8}
	x := &relay.Node{ID: 0, Op: relay.OpInput, Name: "x", Shape: shape, DType: tensor.FP32}
	a := &relay.Node{ID: 1, Op: relay.OpActivation, Inputs: []*relay.Node{x}, Shape: shape, DType: tensor.FP32}
	b := &relay.Node{ID: 2, Op: relay.OpAdd, Inputs: []*relay.Node{a, x}, Shape: shape, DType: tensor.FP32}
	c := &relay.Node{ID: 3, Op: relay.OpSoftmax, Inputs: []*relay.Node{b}, Shape: shape, DType: tensor.FP32}
	g := &relay.Graph{Nodes: []*relay.Node{x, a, b, c}, Inputs: []*relay.Node{x}, Output: c}
	desc := ElementwiseLikeDesc("ew", rows*8, 1, 1, tensor.FP32)
	return &Module{
		Graph:  g,
		Device: gpu.T4(),
		Kernels: []Kernel{
			{Name: "in", Node: x, Slot: 0,
				Exec: func(env *Env, dst *tensor.Tensor) *tensor.Tensor { return env.Input("x") }},
			{Name: "relu", Node: a, Slot: 1, Launches: 1, Desc: desc,
				Exec: func(env *Env, dst *tensor.Tensor) *tensor.Tensor {
					return ActivationInto(dst, env.Value(0), cutlass.ActReLU)
				}},
			{Name: "add", Node: b, Slot: 2, Launches: 1, Desc: desc,
				Exec: func(env *Env, dst *tensor.Tensor) *tensor.Tensor {
					return AddInto(dst, env.Value(1), env.Value(0))
				}},
			{Name: "softmax", Node: c, Slot: 3, Launches: 1, Desc: desc,
				Exec: func(env *Env, dst *tensor.Tensor) *tensor.Tensor {
					return SoftmaxInto(dst, env.Value(2))
				}},
		},
	}
}

// TestModuleFirstUseConcurrent races the one-time plan derivation: on
// a fresh module, goroutines call Run, RunUnplanned and Memory together.
// Every output must be bit-identical to a sequential reference module's
// and every MemoryReport equal to its report (run under -race).
func TestModuleFirstUseConcurrent(t *testing.T) {
	const rows, callers = 4, 8
	x := tensor.New(tensor.FP32, rows, 8)
	x.FillRandom(11, 2)
	inputs := map[string]*tensor.Tensor{"x": x}
	ref := chainModule(rows)
	want := ref.RunUnplanned(inputs)
	wantMem := ref.Memory()
	if wantMem.ArenaBuffers == 0 || wantMem.ReuseFactor <= 1 {
		t.Fatalf("reference plan recycles nothing: %+v", wantMem)
	}

	m := chainModule(rows)
	outs := make([]*tensor.Tensor, 2*callers)
	mems := make([]MemoryReport, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(3)
		go func() { defer wg.Done(); outs[2*i] = m.Run(inputs) }()
		go func() { defer wg.Done(); outs[2*i+1] = m.RunUnplanned(inputs) }()
		go func() { defer wg.Done(); mems[i] = m.Memory() }()
	}
	wg.Wait()
	for i, out := range outs {
		for j, v := range out.Data() {
			if math.Float32bits(v) != math.Float32bits(want.Data()[j]) {
				t.Fatalf("output %d element %d = %g, want %g", i, j, v, want.Data()[j])
			}
		}
	}
	for i, mem := range mems {
		if mem != wantMem {
			t.Errorf("memory report %d = %+v, want %+v", i, mem, wantMem)
		}
	}
}

func TestEnvPanicsOnMissing(t *testing.T) {
	env := NewEnv(0, map[string]*tensor.Tensor{})
	defer func() {
		if recover() == nil {
			t.Error("missing input should panic")
		}
	}()
	env.Input("nope")
}

func TestMemoryReport(t *testing.T) {
	d := gpu.T4()
	w := tensor.New(tensor.FP16, 8, 16)
	c := &relay.Node{ID: 0, Op: relay.OpConstant, Shape: w.Shape(), DType: tensor.FP16, Value: w}
	in := &relay.Node{ID: 1, Op: relay.OpInput, Name: "x", Shape: tensor.Shape{4, 8}, DType: tensor.FP16}
	dn := &relay.Node{ID: 2, Op: relay.OpDense, Inputs: []*relay.Node{in, c}, Shape: tensor.Shape{4, 16}, DType: tensor.FP16}
	g := &relay.Graph{Nodes: []*relay.Node{c, in, dn}, Inputs: []*relay.Node{in}, Output: dn}
	m := &Module{Graph: g, Device: d}
	rep := m.Memory()
	if rep.ParamBytes != 8*16*2 {
		t.Errorf("param bytes %d, want %d", rep.ParamBytes, 8*16*2)
	}
	if rep.PeakActivationBytes != 4*16*2 {
		t.Errorf("peak activation %d, want %d", rep.PeakActivationBytes, 4*16*2)
	}
}

// BenchmarkMaxPool times servenet's 2x2/2 pool over the first conv's
// NHWC output (32x32x16) at batch 1 and 8.
func BenchmarkMaxPool(b *testing.B) {
	for _, n := range []int{1, 8} {
		b.Run(fmt.Sprintf("servenet2x2s2b%d", n), func(b *testing.B) {
			x := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNHWC, n, 32, 32, 16)
			x.FillRandom(1, 1)
			p := relay.PoolAttrs{Kernel: 2, Stride: 2}
			dst := MaxPoolInto(nil, x, p)
			for b.Loop() {
				MaxPoolInto(dst, x, p)
			}
		})
	}
}
