package cutlass

import (
	"math/rand"
	"testing"

	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// randValidConfig draws from the template parameter lattice until a
// config passes validation (the lattice is dense enough that this
// terminates fast).
func randValidConfig(rng *rand.Rand, d *gpu.Device) GemmConfig {
	tbs := []int{32, 64, 128, 256}
	ks := []int{32, 64}
	for {
		tb := Shape3{tbs[rng.Intn(4)], tbs[rng.Intn(4)], ks[rng.Intn(2)]}
		warp := Shape3{tbs[rng.Intn(3)], tbs[rng.Intn(3)], tb.K}
		cfg := GemmConfig{
			TB: tb, Warp: warp, Inst: InstructionShape(d.Arch),
			Stages: 2, SwizzleLog: rng.Intn(4),
			AlignA: 8, AlignB: 8, AlignC: 8,
			Op: gpu.OpClassTensorOp, DType: tensor.FP16,
		}
		if d.Arch >= gpu.SM80 {
			cfg.Stages = 2 + rng.Intn(3)
		}
		if cfg.Validate(d) == nil {
			return cfg
		}
	}
}

// Property: every valid config produces a launchable, finitely priced
// kernel on aligned problems.
func TestValidConfigsAreLaunchableProperty(t *testing.T) {
	d := gpu.T4()
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 300; i++ {
		cfg := randValidConfig(rng, d)
		g := &Gemm{Config: cfg, Epilogue: DefaultEpilogue()}
		m := 64 * (1 + rng.Intn(32))
		n := 64 * (1 + rng.Intn(32))
		k := 64 * (1 + rng.Intn(32))
		desc := g.Desc(d, m, n, k)
		occ := d.Occupancy(desc)
		if occ.BlocksPerSM == 0 {
			t.Fatalf("valid config %s cannot launch (%+v)", cfg.Name(), occ)
		}
		tm := d.KernelTime(desc)
		if tm <= 0 || tm > 1 {
			t.Fatalf("config %s on (%d,%d,%d): time %g implausible", cfg.Name(), m, n, k, tm)
		}
		// Grid must cover the problem exactly once.
		tilesM := (m + cfg.TB.M - 1) / cfg.TB.M
		tilesN := (n + cfg.TB.N - 1) / cfg.TB.N
		if desc.GridBlocks != tilesM*tilesN {
			t.Fatalf("grid %d != %d x %d tiles", desc.GridBlocks, tilesM, tilesN)
		}
	}
}

// Property: traffic is at least compulsory (each operand once) and at
// most the no-reuse bound (re-read per tile row/column).
func TestTrafficBoundsProperty(t *testing.T) {
	d := gpu.T4()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		cfg := randValidConfig(rng, d)
		m := 64 * (1 + rng.Intn(64))
		n := 64 * (1 + rng.Intn(64))
		k := 64 * (1 + rng.Intn(16))
		loadB, storeB := cfg.traffic(d, m, n, k, 2)
		compulsory := float64((m*k + k*n) * 2)
		tilesM := (m + cfg.TB.M - 1) / cfg.TB.M
		tilesN := (n + cfg.TB.N - 1) / cfg.TB.N
		worst := float64(m*k*2)*float64(tilesN) + float64(k*n*2)*float64(tilesM)
		if loadB < compulsory-1 || loadB > worst+1 {
			t.Fatalf("traffic %g outside [%g, %g] for %s on (%d,%d,%d)",
				loadB, compulsory, worst, cfg.Name(), m, n, k)
		}
		if storeB != float64(m*n*2) {
			t.Fatalf("store %g != %d", storeB, m*n*2)
		}
	}
}

// Property: GEMM time is (almost) monotone in problem size. Exact
// monotonicity does not hold on tiny grids — doubling N can double the
// number of active SMs and genuinely reduce latency, on real GPUs as
// in the model — so a 10% tolerance is allowed there; K (which adds
// work without adding parallelism) must be strictly monotone.
func TestTimeMonotoneInProblemProperty(t *testing.T) {
	d := gpu.T4()
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		cfg := randValidConfig(rng, d)
		g := &Gemm{Config: cfg, Epilogue: DefaultEpilogue()}
		m := 64 * (1 + rng.Intn(16))
		n := 64 * (1 + rng.Intn(16))
		k := 64 * (1 + rng.Intn(16))
		base := g.Time(d, m, n, k)
		if g.Time(d, m, n, 2*k) < base-1e-12 {
			t.Fatalf("time not monotone in K for %s at (%d,%d,%d)", cfg.Name(), m, n, k)
		}
		// M/N monotonicity only holds once the grid saturates the
		// device; below that, larger problems recruit idle SMs and can
		// genuinely run in less time.
		tilesM := (m + cfg.TB.M - 1) / cfg.TB.M
		tilesN := (n + cfg.TB.N - 1) / cfg.TB.N
		if tilesM*tilesN >= d.SMs {
			if g.Time(d, 2*m, n, k) < 0.95*base || g.Time(d, m, 2*n, k) < 0.95*base {
				t.Fatalf("time dropped on a larger problem for %s at (%d,%d,%d)", cfg.Name(), m, n, k)
			}
		}
	}
}

// Property: epilogue fusion never loses to the unfused pair
// (GEMM kernel + standalone elementwise kernel) on any activation.
func TestFusionAlwaysWinsProperty(t *testing.T) {
	d := gpu.T4()
	rng := rand.New(rand.NewSource(13))
	acts := []Activation{ActReLU, ActGELU, ActHardswish, ActSoftplus, ActSigmoid}
	for i := 0; i < 200; i++ {
		cfg := randValidConfig(rng, d)
		act := acts[rng.Intn(len(acts))]
		m := 64 * (1 + rng.Intn(32))
		n := 64 * (1 + rng.Intn(32))
		k := 64 * (1 + rng.Intn(16))
		plain := &Gemm{Config: cfg, Epilogue: DefaultEpilogue()}
		fused := &Gemm{Config: cfg, Epilogue: BiasActivation(act)}
		unfusedT := plain.Time(d, m, n, k) + d.KernelTime(ElementwiseDesc(d, m*n, act, tensor.FP16))
		if fused.Time(d, m, n, k) > unfusedT {
			t.Fatalf("fusion lost for %s %s on (%d,%d,%d)", cfg.Name(), act, m, n, k)
		}
	}
}

// Property: functional GEMM output never contains NaN for finite,
// moderate inputs (FP16 overflow guarded by input scale).
func TestNoNaNProperty(t *testing.T) {
	d := gpu.T4()
	g, _ := NewGemm(smallConfig(), BiasActivation(ActSoftplus), d)
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 30; i++ {
		m := 8 * (1 + rng.Intn(4))
		k := 8 * (1 + rng.Intn(8))
		a := tensor.New(tensor.FP16, m, k)
		b := tensor.New(tensor.FP16, k, 16)
		bias := tensor.New(tensor.FP16, 16)
		a.FillRandom(int64(i), 2)
		b.FillRandom(int64(i+100), 2)
		bias.FillRandom(int64(i+200), 2)
		out := g.RunInto(nil, a, b, bias)
		for _, v := range out.Data() {
			if v != v {
				t.Fatalf("NaN in output at iteration %d", i)
			}
		}
	}
}
