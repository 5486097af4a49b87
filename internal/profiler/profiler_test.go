package profiler

import (
	"fmt"
	"reflect"
	"testing"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

func TestCandidateCountIsTens(t *testing.T) {
	p := New(gpu.T4(), nil)
	for _, w := range []GemmWorkload{
		{1024, 1024, 1024, tensor.FP16},
		{32, 768, 768, tensor.FP16},
		{1280, 3072, 768, tensor.FP16},
	} {
		c := p.GemmCandidates(w)
		if len(c) == 0 {
			t.Fatalf("%s: no candidates", w)
		}
		// "For each GPU architecture, Bolt produces tens of best
		// parameter combinations" (§3.2.2) — not thousands.
		if len(c) > 100 {
			t.Errorf("%s: %d candidates, want tens", w, len(c))
		}
		for _, cfg := range c {
			if err := cfg.Validate(p.dev); err != nil {
				t.Fatalf("invalid candidate: %v", err)
			}
			if !cfg.SupportsProblem(w.M, w.N, w.K) {
				t.Fatalf("candidate %s cannot run %s", cfg.Name(), w)
			}
			if cfg.Op != gpu.OpClassTensorOp {
				t.Error("profiler candidates must target tensor cores")
			}
		}
	}
}

func TestSmallProblemsGetSmallTiles(t *testing.T) {
	p := New(gpu.T4(), nil)
	small := p.GemmCandidates(GemmWorkload{128, 128, 512, tensor.FP16})
	for _, c := range small {
		if c.TB.M > 64 || c.TB.N > 64 {
			t.Errorf("small problem offered %v threadblock (SM starvation)", c.TB)
		}
	}
	big := p.GemmCandidates(GemmWorkload{4096, 4096, 1024, tensor.FP16})
	found := false
	for _, c := range big {
		if c.TB.M >= 128 && c.TB.N >= 128 {
			found = true
		}
	}
	if !found {
		t.Error("large problem should include large threadblocks")
	}
}

func TestAlignmentFollowsShape(t *testing.T) {
	p := New(gpu.T4(), nil)
	for _, c := range p.GemmCandidates(GemmWorkload{1024, 1024, 1024, tensor.FP16}) {
		if c.AlignA != 8 {
			t.Error("divisible-by-8 shape should use alignment 8")
		}
	}
	for _, c := range p.GemmCandidates(GemmWorkload{1024, 1022, 1024, tensor.FP16}) {
		if c.AlignB != 2 {
			t.Errorf("N=1022 should force alignment 2, got %d", c.AlignB)
		}
	}
}

func TestProfileGemmPicksFastest(t *testing.T) {
	d := gpu.T4()
	p := New(d, nil)
	p.Measure.NoiseStdDev = 0 // deterministic for the oracle check
	w := GemmWorkload{1280, 3072, 768, tensor.FP16}
	res, err := p.ProfileGemm(w)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: the chosen config's model time must equal the minimum
	// over all candidates.
	bestOracle := -1.0
	for _, cfg := range p.GemmCandidates(w) {
		g := &cutlass.Gemm{Config: cfg, Epilogue: cutlass.DefaultEpilogue()}
		tm := d.KernelTime(g.Desc(d, w.M, w.N, w.K))
		if bestOracle < 0 || tm < bestOracle {
			bestOracle = tm
		}
	}
	got := d.KernelTime((&cutlass.Gemm{Config: res.Config, Epilogue: cutlass.DefaultEpilogue()}).Desc(d, w.M, w.N, w.K))
	if got != bestOracle {
		t.Errorf("profiler picked %.4g, oracle best is %.4g", got, bestOracle)
	}
}

func TestProfileCaching(t *testing.T) {
	var clock gpu.Clock
	p := New(gpu.T4(), &clock)
	w := GemmWorkload{1024, 1024, 1024, tensor.FP16}
	if _, err := p.ProfileGemm(w); err != nil {
		t.Fatal(err)
	}
	before := clock.Elapsed()
	if _, err := p.ProfileGemm(w); err != nil {
		t.Fatal(err)
	}
	if clock.Elapsed() != before {
		t.Error("cached re-profile must not charge the clock")
	}
}

func TestCompileChargedOncePerConfig(t *testing.T) {
	var clock gpu.Clock
	p := New(gpu.T4(), &clock)
	// Two workloads of the same size class share sample programs;
	// compile cost must not double.
	if _, err := p.ProfileGemm(GemmWorkload{1024, 1024, 1024, tensor.FP16}); err != nil {
		t.Fatal(err)
	}
	afterFirst := clock.Elapsed()
	if _, err := p.ProfileGemm(GemmWorkload{2048, 2048, 2048, tensor.FP16}); err != nil {
		t.Fatal(err)
	}
	secondCost := clock.Elapsed() - afterFirst
	if secondCost > afterFirst/2 {
		t.Errorf("second workload cost %.1fs vs first %.1fs: sample programs not reused", secondCost, afterFirst)
	}
}

func TestProfileConv(t *testing.T) {
	p := New(gpu.T4(), nil)
	s := cutlass.Conv3x3(32, 56, 56, 64, 64, 1, 1)
	res, err := p.ProfileConv(ConvWorkload{Shape: s, DType: tensor.FP16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.Candidates == 0 {
		t.Errorf("bad conv result: %+v", res)
	}
	conv := &cutlass.Conv2D{Shape: s, Config: res.Config, Epilogue: cutlass.DefaultEpilogue()}
	if !conv.SupportsProblem() {
		t.Error("chosen conv config violates channel alignment")
	}
}

func TestProfileConvUnalignedChannels(t *testing.T) {
	p := New(gpu.T4(), nil)
	// IC=46: alignment 2 kernels only.
	s := cutlass.Conv3x3(32, 20, 26, 46, 32, 1, 1)
	res, err := p.ProfileConv(ConvWorkload{Shape: s, DType: tensor.FP16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.AlignA != 2 {
		t.Errorf("IC=46 should force alignment 2, got %d", res.Config.AlignA)
	}
}

func TestTuningTimeIsMinutesNotHours(t *testing.T) {
	var clock gpu.Clock
	p := New(gpu.T4(), &clock)
	// Profile a ResNet-50-like task set (Figure 10b: Bolt finishes all
	// models within 20 minutes).
	shapes := []cutlass.ConvShape{
		cutlass.Conv3x3(32, 56, 56, 64, 64, 1, 1),
		cutlass.Conv3x3(32, 56, 56, 128, 128, 2, 1),
		cutlass.Conv3x3(32, 28, 28, 128, 128, 1, 1),
		cutlass.Conv3x3(32, 28, 28, 256, 256, 2, 1),
		cutlass.Conv3x3(32, 14, 14, 256, 256, 1, 1),
		cutlass.Conv3x3(32, 14, 14, 512, 512, 2, 1),
		cutlass.Conv3x3(32, 7, 7, 512, 512, 1, 1),
	}
	for _, s := range shapes {
		if _, err := p.ProfileConv(ConvWorkload{Shape: s, DType: tensor.FP16}); err != nil {
			t.Fatal(err)
		}
	}
	if min := clock.Elapsed() / 60; min > 20 {
		t.Errorf("profiling 7 tasks took %.1f simulated minutes, want < 20", min)
	}
}

// The group strings seed every measurement's noise stream and name the
// cost model's rank groups, so the merged tuning path must keep them
// byte for byte.
func TestWorkloadGroupsPinned(t *testing.T) {
	for _, c := range []struct {
		w    Workload
		want string
	}{
		{GemmWorkload{M: 1280, N: 3072, K: 768, DType: tensor.FP16}, "gemm:(1280, 3072, 768):float16"},
		{ConvWorkload{Shape: cutlass.Conv3x3(32, 56, 56, 64, 128, 2, 1), DType: tensor.INT8}, "conv:conv 32x56x56x64 k3x3 s2 ic64 oc128:int8"},
	} {
		if got := c.w.Group(); got != c.want {
			t.Errorf("Group() = %q, want %q", got, c.want)
		}
	}
}

// A 1x1 convolution and the GEMM it lowers to share (M, N, K, dtype)
// but are distinct workloads: the one cache must never hand one kind's
// result to the other, in either order.
func TestCacheKeepsKindsApart(t *testing.T) {
	conv := ConvWorkload{Shape: cutlass.Conv1x1(1, 14, 14, 256, 512), DType: tensor.FP16}
	m, n, k := conv.Shape.ImplicitGemm()
	gemm := GemmWorkload{M: m, N: n, K: k, DType: tensor.FP16}
	fresh := func(w Workload) Result {
		r, err := New(gpu.T4(), nil).profile(w)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	wantConv, wantGemm := fresh(conv), fresh(gemm)
	if reflect.DeepEqual(wantConv, wantGemm) {
		t.Fatalf("conv and GEMM results coincide (%+v); the test cannot tell them apart", wantConv)
	}
	for _, order := range [][]Workload{{conv, gemm}, {gemm, conv}} {
		p := New(gpu.T4(), nil)
		for _, w := range order {
			if _, err := p.profile(w); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			w    Workload
			want Result
		}{{conv, wantConv}, {gemm, wantGemm}} {
			got, err := p.profile(c.w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("%v after %v: got %+v, want a fresh profiler's %+v", c.w, order, got, c.want)
			}
		}
	}
}

// TestConfigStringsMatchSprintf pins GemmConfig.Name and Shape3.String
// to the fmt.Sprintf forms they replaced, and dedupConfigs to a set
// keyed on those strings, over every candidate T4 and A100 enumerate
// for GEMMs of each size class, alignment and dtype.
func TestConfigStringsMatchSprintf(t *testing.T) {
	var all []cutlass.GemmConfig
	for _, dev := range []*gpu.Device{gpu.T4(), gpu.A100()} {
		p := New(dev, nil)
		for _, dt := range []tensor.DType{tensor.FP16, tensor.FP32, tensor.INT8} {
			for _, m := range []int{32, 1024} {
				for _, n := range []int{30, 64, 768, 3072} {
					for _, k := range []int{33, 64, 768} {
						all = append(all, p.GemmCandidates(GemmWorkload{M: m, N: n, K: k, DType: dt})...)
					}
				}
			}
		}
	}
	if len(all) == 0 {
		t.Fatal("no candidates enumerated")
	}
	for _, c := range all {
		for _, s := range []cutlass.Shape3{c.TB, c.Warp, c.Inst} {
			if got, want := s.String(), fmt.Sprintf("%dx%dx%d", s.M, s.N, s.K); got != want {
				t.Fatalf("Shape3.String() = %q, want %q", got, want)
			}
		}
		op := "simt_s"
		if c.Op == gpu.OpClassTensorOp {
			op = fmt.Sprintf("tensorop_h%d%d%d", c.Inst.M, c.Inst.N, c.Inst.K)
		}
		want := fmt.Sprintf("cutlass_%sgemm_%dx%d_%dx%d_align%d", op, c.TB.M, c.TB.N, c.TB.K, c.Stages, c.AlignC)
		if got := c.Name(); got != want {
			t.Fatalf("Name() = %q, want %q", got, want)
		}
	}

	seen := make(map[string]bool)
	var want []cutlass.GemmConfig
	for _, c := range all {
		key := fmt.Sprintf("%v|%v|%d|%d|%d", c.TB, c.Warp, c.Stages, c.SwizzleLog, c.AlignA)
		if !seen[key] {
			seen[key] = true
			want = append(want, c)
		}
	}
	if got := dedupConfigs(append([]cutlass.GemmConfig(nil), all...)); !reflect.DeepEqual(got, want) {
		t.Errorf("dedupConfigs kept %d configs, a string-keyed set %d", len(got), len(want))
	}
}
