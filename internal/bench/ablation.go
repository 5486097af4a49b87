package bench

import (
	"fmt"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/models"
	"bolt/internal/persistent"
	"bolt/internal/profiler"
	"bolt/internal/relay"
	"bolt/internal/tensor"
	"bolt/internal/tunelog"
)

// The ablations quantify the design choices DESIGN.md calls out:
// which parts of the templated search and of persistent fusion
// actually buy the performance. They go beyond the paper's tables
// (its §3.2.2 lists the tuning guidelines without isolating them).

// AblationIDs lists the extension experiments.
func AblationIDs() []string {
	return []string{"abl-swizzle", "abl-warps", "abl-smalltb", "abl-residence", "abl-stages", "ext-dyn", "ext-chain", "ext-int8", "ext-cache", "serving", "multimodel", "hetero", "padding", "coldstart", "precision", "fleet"}
}

// AblationByID returns the regenerator for an ablation id.
func (s *Suite) AblationByID(id string) func() *Table {
	m := map[string]func() *Table{
		"abl-swizzle":   s.AblationSwizzle,
		"abl-warps":     s.AblationWarps,
		"abl-smalltb":   s.AblationSmallTB,
		"abl-residence": s.AblationResidence,
		"abl-stages":    s.AblationStages,
		"ext-dyn":       s.ExtensionDynamicShapes,
		"ext-chain":     s.ExtensionDeepChains,
		"ext-int8":      s.ExtensionINT8,
		"ext-cache":     s.ExtensionCompileCache,
		"serving":       s.Serving,
		"multimodel":    s.MultiModel,
		"hetero":        s.Hetero,
		"padding":       s.Padding,
		"coldstart":     s.Coldstart,
		"precision":     s.Precision,
		"fleet":         s.Fleet,
	}
	return m[id]
}

// AblationSwizzle isolates the threadblock-swizzling parameter: tile
// groups of 2^k share operand rows/columns through L2, cutting DRAM
// traffic on large GEMMs.
func (s *Suite) AblationSwizzle() *Table {
	t := &Table{
		ID:      "abl-swizzle",
		Title:   "Ablation: threadblock swizzling on a 4096^3 FP16 GEMM",
		Columns: []string{"swizzle group", "DRAM GB/launch", "time us", "vs swizzle=1"},
		Notes:   []string{"swizzling is one of the profiler's searched parameters (§3.2.2)"},
	}
	m, n, k := 4096, 4096, 4096
	base := -1.0
	for sw := 0; sw <= 3; sw++ {
		cfg := cutlass.GemmConfig{
			TB:     cutlass.Shape3{M: 128, N: 128, K: 32},
			Warp:   cutlass.Shape3{M: 64, N: 64, K: 32},
			Inst:   cutlass.InstructionShape(s.Dev.Arch),
			Stages: 2, SwizzleLog: sw,
			AlignA: 8, AlignB: 8, AlignC: 8,
			Op: gpu.OpClassTensorOp, DType: tensor.FP16,
		}
		g := &cutlass.Gemm{Config: cfg, Epilogue: cutlass.DefaultEpilogue()}
		desc := g.Desc(s.Dev, m, n, k)
		tm := s.Dev.KernelTime(desc)
		if sw == 0 {
			base = tm
		}
		t.AddRow(fmt.Sprintf("%dx%d", 1<<sw, 1<<sw),
			f2((desc.GlobalLoadB+desc.GlobalStoreB)/1e9), us(tm), f2(base/tm))
	}
	return t
}

// AblationWarps isolates tuning guideline 2: "four or eight warps per
// threadblock tends to have better performance".
func (s *Suite) AblationWarps() *Table {
	t := &Table{
		ID:      "abl-warps",
		Title:   "Ablation: warps per threadblock on a 2048^3 FP16 GEMM (128x128 tile)",
		Columns: []string{"warps", "warp tile", "regs/thread", "time us"},
		Notes:   []string{"guideline 2 (§3.2.2): 4-8 warps balance occupancy vs per-warp tile size"},
	}
	m, n, k := 2048, 2048, 2048
	for _, w := range []struct {
		warps int
		warp  cutlass.Shape3
	}{
		{2, cutlass.Shape3{M: 128, N: 64, K: 32}},
		{4, cutlass.Shape3{M: 64, N: 64, K: 32}},
		{8, cutlass.Shape3{M: 64, N: 32, K: 32}},
		{16, cutlass.Shape3{M: 32, N: 32, K: 32}},
	} {
		cfg := cutlass.GemmConfig{
			TB: cutlass.Shape3{M: 128, N: 128, K: 32}, Warp: w.warp,
			Inst:   cutlass.InstructionShape(s.Dev.Arch),
			Stages: 2, SwizzleLog: 2, AlignA: 8, AlignB: 8, AlignC: 8,
			Op: gpu.OpClassTensorOp, DType: tensor.FP16,
		}
		if cfg.Validate(s.Dev) != nil {
			t.AddRow(fmt.Sprint(w.warps), w.warp.String(), "-", "invalid (register cap)")
			continue
		}
		g := &cutlass.Gemm{Config: cfg, Epilogue: cutlass.DefaultEpilogue()}
		t.AddRow(fmt.Sprint(w.warps), w.warp.String(),
			fmt.Sprint(cfg.RegsPerThread()), us(g.Time(s.Dev, m, n, k)))
	}
	return t
}

// AblationSmallTB isolates tuning guideline 3: small problems need
// small threadblocks to keep SMs busy.
func (s *Suite) AblationSmallTB() *Table {
	t := &Table{
		ID:      "abl-smalltb",
		Title:   "Ablation: threadblock size on a small GEMM (M=32, N=768, K=768)",
		Columns: []string{"threadblock", "grid blocks", "active SMs", "time us"},
		Notes:   []string{"guideline 3 (§3.2.2): small problems need small threadblocks to launch enough blocks"},
	}
	m, n, k := 32, 768, 768
	for _, tb := range []cutlass.Shape3{
		{M: 32, N: 32, K: 32}, {M: 32, N: 64, K: 32},
		{M: 32, N: 128, K: 32}, {M: 32, N: 256, K: 32},
	} {
		warpN := tb.N
		if warpN > 64 {
			warpN = 64
		}
		cfg := cutlass.GemmConfig{
			TB: tb, Warp: cutlass.Shape3{M: 16, N: warpN, K: 32},
			Inst:   cutlass.InstructionShape(s.Dev.Arch),
			Stages: 2, SwizzleLog: 0, AlignA: 8, AlignB: 8, AlignC: 8,
			Op: gpu.OpClassTensorOp, DType: tensor.FP16,
		}
		if err := cfg.Validate(s.Dev); err != nil {
			continue
		}
		g := &cutlass.Gemm{Config: cfg, Epilogue: cutlass.DefaultEpilogue()}
		desc := g.Desc(s.Dev, m, n, k)
		bd := s.Dev.Breakdown(desc)
		t.AddRow(tb.String(), fmt.Sprint(desc.GridBlocks), fmt.Sprint(bd.ActiveSMs), us(bd.Total))
	}
	return t
}

// AblationResidence forces each residence kind on one Table-1 pair,
// plus the unfused baseline, isolating where the fusion win comes
// from.
func (s *Suite) AblationResidence() *Table {
	t := &Table{
		ID:      "abl-residence",
		Title:   "Ablation: residence kind on the (16384,64,256)+(16384,16,64) pair",
		Columns: []string{"variant", "launches", "regs/thread", "smem KB", "time us"},
		Notes: []string{
			"RF residence holds the producer's accumulator in registers; smem residence stages it with a conflict-free layout",
		},
	}
	relu := cutlass.BiasActivation(cutlass.ActReLU)
	mk := func(n, k int) persistent.GemmLayer {
		cfg, _ := relay.ResidenceConfig(n, s.Dev)
		return persistent.GemmLayer{N: n, K: k, Config: cfg, Epilogue: relu}
	}
	m := 16384
	layers := []persistent.GemmLayer{mk(64, 256), mk(16, 64)}

	t.AddRow("unfused (epilogue fusion only)", "2", "-", "-",
		us(persistent.UnfusedGemmTime(s.Dev, m, layers)))

	for _, kind := range []persistent.Residence{persistent.RFResident, persistent.SMEMResident} {
		ls := make([]persistent.GemmLayer, len(layers))
		copy(ls, layers)
		for i := range ls {
			if kind == persistent.RFResident {
				ls[i].Config.Warp.N = ls[i].Config.TB.N
			}
		}
		f, err := persistent.NewFusedGemm(m, ls, kind, s.Dev)
		if err != nil {
			t.AddRow(kind.String(), "-", "-", "-", "invalid: "+err.Error())
			continue
		}
		desc := f.Desc(s.Dev)
		t.AddRow(kind.String(), "1", fmt.Sprint(desc.RegsPerThread),
			fmt.Sprint(desc.SharedMemBytes>>10), us(f.Time(s.Dev)))
	}
	return t
}

// AblationStages isolates the multistage (cp.async) pipeline depth on
// Ampere, which Turing lacks.
func (s *Suite) AblationStages() *Table {
	t := &Table{
		ID:      "abl-stages",
		Title:   "Ablation: pipeline stages on A100 (sm_80), 4096^3 FP16 GEMM",
		Columns: []string{"stages", "smem KB", "time us", "TFLOPS"},
		Notes:   []string{"deep cp.async pipelines are an sm_80 feature; Turing kernels are limited to 2 stages"},
	}
	dev := gpu.A100()
	m, n, k := 4096, 4096, 4096
	for stages := 2; stages <= 5; stages++ {
		cfg := cutlass.GemmConfig{
			TB:     cutlass.Shape3{M: 128, N: 128, K: 32},
			Warp:   cutlass.Shape3{M: 64, N: 64, K: 32},
			Inst:   cutlass.InstructionShape(dev.Arch),
			Stages: stages, SwizzleLog: 2,
			AlignA: 8, AlignB: 8, AlignC: 8,
			Op: gpu.OpClassTensorOp, DType: tensor.FP16,
		}
		if err := cfg.Validate(dev); err != nil {
			t.AddRow(fmt.Sprint(stages), "-", "invalid", "-")
			continue
		}
		g := &cutlass.Gemm{Config: cfg, Epilogue: cutlass.DefaultEpilogue()}
		tm := g.Time(dev, m, n, k)
		t.AddRow(fmt.Sprint(stages), fmt.Sprint(cfg.SharedMemBytes()>>10),
			us(tm), f1(2*float64(m)*float64(n)*float64(k)/tm/1e12))
	}
	return t
}

// ExtensionDynamicShapes reproduces the paper's *motivation* for fast
// tuning (§2.1): models with dynamic sequence lengths present new
// workloads at runtime. A TopHub-style tuning-log database (built by
// tuning the *static* deployment shape, seq=40) hits only that shape;
// every other length is a miss that costs a full opaque re-tune.
// Bolt's pre-generated sample programs make per-shape profiling a
// subsecond-to-seconds affair.
func (s *Suite) ExtensionDynamicShapes() *Table {
	t := &Table{
		ID:      "ext-dyn",
		Title:   "Extension: dynamic sequence lengths (BERT FFN GEMM, batch 32)",
		Columns: []string{"seq len", "workload (M,N,K)", "TopHub cache", "Ansor cost", "Bolt cost", "Bolt us", "Ansor us"},
		Notes: []string{
			"the tuning-log database was built for the static deployment shape (seq=40) only (§2.1)",
			"Bolt reuses pre-generated sample programs: per-shape cost is measurement only",
		},
	}
	p, boltClock := s.newProfiler()
	trials := s.MicroTrials / 4
	if trials < 64 {
		trials = 64
	}

	// The database a static deployment would ship: the seq=40 task.
	db := tunelog.New()
	staticTuner, _ := s.newAnsor()
	staticRes := staticTuner.TuneGemm(32*40, 3072, 768, trials, tensor.FP16)
	db.Record(tunelog.GemmKey(32*40, 3072, 768, tensor.FP16, s.Dev.Arch.String()),
		tunelog.Entry{Schedule: staticRes.Schedule, TimeSeconds: staticRes.Time, Trials: trials})

	for _, seq := range []int{16, 40, 64, 128, 256} {
		m := 32 * seq
		before := boltClock.Elapsed()
		res, err := p.ProfileGemm(profiler.GemmWorkload{M: m, N: 3072, K: 768, DType: tensor.FP16})
		if err != nil {
			panic(err)
		}
		boltCost := boltClock.Elapsed() - before

		var ansorTime, ansorCost float64
		cache := "miss"
		if e, ok := db.Lookup(tunelog.GemmKey(m, 3072, 768, tensor.FP16, s.Dev.Arch.String())); ok {
			// Cache hit: the stored schedule is reused for free.
			cache = "hit"
			ansorTime = e.TimeSeconds
		} else {
			tuner, ansorClock := s.newAnsor()
			ar := tuner.TuneGemm(m, 3072, 768, trials, tensor.FP16)
			ansorTime = ar.Time
			// Scale the re-tune cost to the paper's 2000-trial budget.
			ansorCost = ansorClock.Elapsed() * 2000 / float64(trials)
		}

		ansorCostStr := "0 (cached)"
		if ansorCost > 0 {
			ansorCostStr = fmt.Sprintf("%.0fmin", ansorCost/60)
		}
		t.AddRow(fmt.Sprint(seq), fmt.Sprintf("(%d,3072,768)", m),
			cache, ansorCostStr, fmt.Sprintf("%.1fs", boltCost),
			us(res.Time), us(ansorTime))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("database hit rate over the trace: %.0f%%", db.HitRate()*100))
	return t
}

// ExtensionDeepChains extends Table 1 beyond pairs: persistent kernels
// can fuse longer GEMM chains "by extending the persistent kernel
// templates and duplicating the GEMM pipelines" (§3.1.1).
func (s *Suite) ExtensionDeepChains() *Table {
	t := &Table{
		ID:      "ext-chain",
		Title:   "Extension: fusing deeper MLP chains (M=32768, layer widths 64-64-32-16)",
		Columns: []string{"fused layers", "launches", "time us", "vs unfused"},
		Notes:   []string{"the paper fuses pairs in Table 1 and notes deeper chains 'can further improve the performance'"},
	}
	relu := cutlass.BiasActivation(cutlass.ActReLU)
	mk := func(n, k int) persistent.GemmLayer {
		cfg, _ := relay.ResidenceConfig(n, s.Dev)
		return persistent.GemmLayer{N: n, K: k, Config: cfg, Epilogue: relu}
	}
	m := 32768
	chain := []persistent.GemmLayer{mk(64, 128), mk(64, 64), mk(32, 64), mk(16, 32)}
	unfused := persistent.UnfusedGemmTime(s.Dev, m, chain)
	t.AddRow("none (4 kernels)", "4", us(unfused), f2(1.0))
	for depth := 2; depth <= len(chain); depth++ {
		f, err := persistent.ChooseGemmResidence(m, chain[:depth], s.Dev)
		if err != nil {
			t.AddRow(fmt.Sprint(depth), "-", "invalid", "-")
			continue
		}
		rest := persistent.UnfusedGemmTime(s.Dev, m, chain[depth:])
		total := f.Time(s.Dev) + rest
		t.AddRow(fmt.Sprintf("first %d (%s)", depth, f.Kind),
			fmt.Sprint(1+len(chain)-depth), us(total), f2(unfused/total))
	}
	return t
}

// ExtensionINT8 prices the mixed-precision path the templated library
// exposes beyond the paper's FP16 evaluation: INT8 IMMA kernels at 2x
// the FP16 tensor-core rate.
func (s *Suite) ExtensionINT8() *Table {
	t := &Table{
		ID:      "ext-int8",
		Title:   "Extension: INT8 (IMMA) vs FP16 (HMMA) templated GEMM on T4",
		Columns: []string{"workload (M,N,K)", "FP16 us", "INT8 us", "INT8 speedup"},
		Notes:   []string{"CUTLASS templates cover B1/INT4/INT8/FP16/BF16/TF32/... (§2.2); T4 IMMA peak is 2x HMMA"},
	}
	int8Cfg := cutlass.GemmConfig{
		TB:     cutlass.Shape3{M: 128, N: 128, K: 64},
		Warp:   cutlass.Shape3{M: 64, N: 64, K: 64},
		Inst:   cutlass.Shape3{M: 8, N: 8, K: 16},
		Stages: 2, SwizzleLog: 2,
		AlignA: 16, AlignB: 16, AlignC: 16,
		Op: gpu.OpClassTensorOp, DType: tensor.INT8,
	}
	p, _ := s.newProfiler()
	for _, w := range []struct{ M, N, K int }{
		{1024, 1024, 1024}, {2048, 2048, 2048}, {4096, 4096, 4096},
	} {
		res, err := p.ProfileGemm(profiler.GemmWorkload{M: w.M, N: w.N, K: w.K, DType: tensor.FP16})
		if err != nil {
			panic(err)
		}
		i8 := &cutlass.Gemm{Config: int8Cfg, Epilogue: cutlass.Epilogue{Alpha: 1, OutDType: tensor.INT8}}
		i8T := i8.Time(s.Dev, w.M, w.N, w.K)
		t.AddRow(fmt.Sprintf("(%d,%d,%d)", w.M, w.N, w.K), us(res.Time), us(i8T), f2(res.Time/i8T))
	}
	return t
}

var _ = models.Table1Workloads // keep import set stable for future rows
