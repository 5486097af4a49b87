// Package profiler implements Bolt's light-weight hardware-native
// performance profiler (paper §3.2.2).
//
// Unlike opaque auto-tuners that explore thousands of candidate
// schedules, the profiler *knows the hardware*: for each GPU
// architecture it enumerates only tens of template parameter
// combinations selected by white-box tuning guidelines —
//
//   - large warp tiles within register-file capacity (higher
//     compute-to-memory ratio);
//   - four or eight warps per threadblock;
//   - small threadblocks for small problems (launch enough blocks to
//     keep SMs busy);
//   - the widest alignment the problem shape divides;
//
// then measures each candidate on the device. Sample kernels are
// generated once per architecture and reused across models and
// workloads, so per-workload tuning costs seconds, not hours.
//
// A convolution is planned and measured as its implicit GEMM, through
// the same path as a GEMM: both are a Workload, and Plan, ProfilePlan
// and the result cache serve either kind.
package profiler

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync"

	"bolt/internal/costmodel"
	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// Workload is one tuning problem. A convolution is tuned as the
// implicit GEMM CUTLASS runs it as (paper §3.2.3): the same template
// candidates, with the alignments taken from the channel counts, so
// both kinds are planned, measured and cached through one path.
type Workload interface {
	// Group identifies the workload: it seeds the deterministic
	// measurement-noise stream and names the cost model's
	// rank-correlation group.
	Group() string
	// Supports reports whether a config's alignments fit the problem.
	Supports(cfg cutlass.GemmConfig) bool

	candidates(p *Profiler) []cutlass.GemmConfig
	// model is the workload as the cost model learns it, measured on dev.
	model(dev *gpu.Device) *costmodel.Workload
	desc(cfg cutlass.GemmConfig, dev *gpu.Device) gpu.KernelDesc
}

// GemmWorkload identifies one GEMM problem.
type GemmWorkload struct {
	M, N, K int
	DType   tensor.DType
}

// String renders like the paper's workload tables: "(M, N, K)".
func (w GemmWorkload) String() string { return fmt.Sprintf("(%d, %d, %d)", w.M, w.N, w.K) }

// Group implements Workload.
func (w GemmWorkload) Group() string { return "gemm:" + w.String() + ":" + w.DType.String() }

// Supports implements Workload.
func (w GemmWorkload) Supports(cfg cutlass.GemmConfig) bool {
	return cfg.SupportsProblem(w.M, w.N, w.K)
}

func (w GemmWorkload) candidates(p *Profiler) []cutlass.GemmConfig { return p.GemmCandidates(w) }

func (w GemmWorkload) model(dev *gpu.Device) *costmodel.Workload {
	return &costmodel.Workload{Group: w.Group(), M: w.M, N: w.N, K: w.K, DType: w.DType, Device: dev.Name}
}

func (w GemmWorkload) desc(cfg cutlass.GemmConfig, dev *gpu.Device) gpu.KernelDesc {
	g := &cutlass.Gemm{Config: cfg, Epilogue: cutlass.DefaultEpilogue()}
	return g.Desc(dev, w.M, w.N, w.K)
}

// ConvWorkload identifies one convolution problem: the full shape plus
// the element type (same-shape convs of different dtypes are distinct
// tuning tasks, mirroring tunelog.Key).
type ConvWorkload struct {
	Shape cutlass.ConvShape
	DType tensor.DType
}

// Group implements Workload.
func (w ConvWorkload) Group() string { return fmt.Sprintf("conv:%+v:%s", w.Shape, w.DType) }

// Supports implements Workload.
func (w ConvWorkload) Supports(cfg cutlass.GemmConfig) bool { return w.kernel(cfg).SupportsProblem() }

func (w ConvWorkload) kernel(cfg cutlass.GemmConfig) *cutlass.Conv2D {
	return &cutlass.Conv2D{Shape: w.Shape, Config: cfg, Epilogue: cutlass.DefaultEpilogue()}
}

// candidates are the implicit GEMM's, with the alignments rewritten to
// follow the channel counts, not the implicit-GEMM dims.
func (w ConvWorkload) candidates(p *Profiler) []cutlass.GemmConfig {
	m, n, k := w.Shape.ImplicitGemm()
	cands := p.GemmCandidates(GemmWorkload{M: m, N: n, K: k, DType: w.DType})
	ica := cutlass.AlignFor(w.Shape.IC, w.DType)
	oca := cutlass.AlignFor(w.Shape.OC, w.DType)
	filtered := cands[:0]
	for _, cfg := range cands {
		cfg.AlignA, cfg.AlignB, cfg.AlignC = ica, ica, oca
		if w.Supports(cfg) {
			filtered = append(filtered, cfg)
		}
	}
	return filtered
}

func (w ConvWorkload) model(dev *gpu.Device) *costmodel.Workload {
	m, n, k := w.Shape.ImplicitGemm()
	return &costmodel.Workload{Group: w.Group(), M: m, N: n, K: k, Conv: w.Shape, DType: w.DType, Device: dev.Name}
}

func (w ConvWorkload) desc(cfg cutlass.GemmConfig, dev *gpu.Device) gpu.KernelDesc {
	return w.kernel(cfg).Desc(dev)
}

// Result is the outcome of profiling one workload.
type Result struct {
	Config cutlass.GemmConfig
	// Time is the measured kernel time in seconds for the best config
	// (the model's predicted time when Predicted is set).
	Time float64
	// Candidates is how many configurations were actually measured
	// (the full enumeration on an unguided sweep; at most Guidance.TopK
	// under guidance; 0 for a predicted resolution).
	Candidates int
	// Enumerated is how many configurations the architecture-guided
	// search enumerated before guidance cut the list (0 for cache-hit
	// results, which enumerate nothing).
	Enumerated int
	// Predicted marks a measurement-free resolution: the trust gate
	// accepted the cost model's pick without running a single sample.
	Predicted bool
	// PredictionError is the relative error |predicted - measured| /
	// measured of the model's score for the chosen config, when guidance
	// consulted a trained model and the config was measured; -1 when not
	// applicable (an unguided profile included).
	PredictionError float64
}

// Guidance configures cost-model-guided candidate selection.
type Guidance struct {
	// Model ranks candidates and learns from every measurement. Nil
	// disables guidance entirely (full sweep, no training).
	Model *costmodel.Predictor
	// TopK measures only the model's k best-ranked candidates per
	// workload (0 = full sweep). Ignored until the model is trained.
	TopK int
	// TrustThreshold skips measurement entirely — emitting the model's
	// predicted-best config — once Model.Confidence() (held-out rank
	// correlation) reaches it. 0 = never skip.
	TrustThreshold float64
}

// on reports whether guidance is on: a model, and a TopK or a
// TrustThreshold. Unguided profiling never asks the model anything, so
// a loaded model's pending fit stays pending; it only learns.
func (g Guidance) on() bool {
	return g.Model != nil && (g.TopK > 0 || g.TrustThreshold > 0)
}

// Plan is a guided profiling decision for one workload: which
// candidates to measure (ranked best-first under guidance), or a
// measurement-free predicted pick.
type Plan struct {
	// Enumerated is the full candidate count before guidance.
	Enumerated int
	// Measure is the candidate subset to measure; nil when Predicted.
	Measure []cutlass.GemmConfig
	// Guided reports whether the model reordered or cut the list.
	Guided bool
	// Predicted means skip measurement: Config and Time carry the
	// model's pick and its predicted kernel seconds.
	Predicted bool
	Config    cutlass.GemmConfig
	Time      float64
}

// Profiler searches template parameters for GEMM and Conv workloads on
// one device, caching best configurations per workload (the paper's
// pre-generated, reusable sample programs).
type Profiler struct {
	dev   *gpu.Device
	clock *gpu.Clock

	mu    sync.Mutex
	cache map[Workload]Result

	// CompileLatency is the simulated cost of building one sample
	// program. Bolt pre-generates them per architecture, so this is
	// charged once per distinct config, not per workload.
	CompileLatency float64
	compiled       map[string]bool

	// Measure controls the per-candidate measurement methodology.
	Measure gpu.MeasureOptions

	// Guide configures cost-model-guided candidate selection. Set it
	// before profiling starts; Worker copies it, so every pool worker
	// shares one model. The zero value is a full sweep.
	Guide Guidance
}

// New creates a profiler for the device. The clock accumulates
// simulated tuning time (Figure 10b); pass nil to skip accounting.
func New(dev *gpu.Device, clock *gpu.Clock) *Profiler {
	m := gpu.QuickMeasure()
	// Per-run profiling-harness overhead: launching a fresh sample
	// kernel, synchronizing, and reading timers costs milliseconds per
	// candidate regardless of how fast the kernel itself runs. It is
	// most of the measurement bill for microsecond kernels, and exactly
	// what guided top-k pruning saves.
	m.LaunchOverhead = 5e-3
	return &Profiler{
		dev:            dev,
		clock:          clock,
		cache:          make(map[Workload]Result),
		CompileLatency: 0.9, // seconds per sample program (nvcc on one template)
		compiled:       make(map[string]bool),
		Measure:        m,
	}
}

// Worker derives a pool worker from a prototype profiler: same device
// and measurement methodology, but its own clock and caches. Sample
// programs named in precompiled are treated as already built (the
// pipeline pre-generates them once and shares them across workers, so
// no worker re-charges nvcc for a template another already compiled).
func (p *Profiler) Worker(clock *gpu.Clock, precompiled []string) *Profiler {
	w := New(p.dev, clock)
	w.CompileLatency = p.CompileLatency
	w.Measure = p.Measure
	w.Guide = p.Guide
	for _, name := range precompiled {
		w.compiled[name] = true
	}
	return w
}

// Clock returns the profiler's tuning clock (may be nil).
func (p *Profiler) Clock() *gpu.Clock { return p.clock }

// workloadRNG derives a deterministic noise stream from a workload's
// identity. Measurement noise therefore depends only on the workload,
// never on profiling order or pool partitioning — Jobs:1 and Jobs:8
// select identical kernels.
func workloadRNG(id string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(id))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// GemmCandidates enumerates the architecture-guided configurations for
// a GEMM workload: tens of combinations, not thousands. FP16 and INT8
// workloads target the tensor cores; FP32 has no tensor-core path on
// any modeled architecture, so its candidates are SIMT (CUDA-core)
// kernels with a degenerate 1x1x1 instruction tile.
func (p *Profiler) GemmCandidates(w GemmWorkload) []cutlass.GemmConfig {
	inst := cutlass.InstructionShape(p.dev.Arch)
	op := gpu.OpClassTensorOp
	if w.DType == tensor.FP32 {
		op = gpu.OpClassSIMT
		inst = cutlass.Shape3{M: 1, N: 1, K: 1}
	}
	alignA := cutlass.AlignFor(w.K, w.DType)
	alignB := cutlass.AlignFor(w.N, w.DType)
	alignC := cutlass.AlignFor(w.N, w.DType)

	// Threadblock shapes by problem size class: small problems need
	// small threadblocks to launch enough blocks (tuning guideline 3).
	var tbShapes []cutlass.Shape3
	smallM := w.M <= 512
	smallN := w.N <= 512
	switch {
	case smallM && smallN:
		tbShapes = []cutlass.Shape3{{M: 32, N: 32, K: 32}, {M: 64, N: 32, K: 32}, {M: 32, N: 64, K: 32}, {M: 64, N: 64, K: 32}}
	case smallM:
		// Small M: one tile row; tiny tiles keep enough blocks in
		// flight to cover the SMs.
		tbShapes = []cutlass.Shape3{
			{M: 32, N: 32, K: 32}, {M: 32, N: 64, K: 32}, {M: 32, N: 128, K: 32},
			{M: 64, N: 64, K: 32}, {M: 64, N: 128, K: 32}, {M: 64, N: 256, K: 32},
		}
	case smallN:
		tbShapes = []cutlass.Shape3{
			{M: 32, N: 32, K: 32}, {M: 64, N: 32, K: 32}, {M: 128, N: 32, K: 32},
			{M: 64, N: 64, K: 32}, {M: 128, N: 64, K: 32}, {M: 256, N: 64, K: 32},
		}
	default:
		tbShapes = []cutlass.Shape3{
			{M: 128, N: 128, K: 32}, {M: 128, N: 256, K: 32}, {M: 256, N: 128, K: 32},
			{M: 128, N: 64, K: 32}, {M: 64, N: 128, K: 32}, {M: 128, N: 128, K: 64},
		}
	}

	stages := []int{2}
	if p.dev.Arch >= gpu.SM80 {
		stages = []int{3, 4}
	}

	var out []cutlass.GemmConfig
	for _, tb := range tbShapes {
		for _, warps := range []int{4, 8} { // tuning guideline 2
			for _, warp := range warpPartitions(tb, warps, inst) {
				for _, st := range stages {
					for _, sw := range []int{1, 2} {
						cfg := cutlass.GemmConfig{
							TB: tb, Warp: warp, Inst: inst,
							Stages: st, SwizzleLog: sw,
							AlignA: alignA, AlignB: alignB, AlignC: alignC,
							Op: op, DType: w.DType,
						}
						if cfg.Validate(p.dev) == nil && w.Supports(cfg) {
							out = append(out, cfg)
						}
					}
				}
			}
		}
	}
	return dedupConfigs(out)
}

// warpPartitions returns warp tiles that split tb into the requested
// warp count, preferring large warp tiles (tuning guideline 1).
func warpPartitions(tb cutlass.Shape3, warps int, inst cutlass.Shape3) []cutlass.Shape3 {
	var out []cutlass.Shape3
	for wm := 1; wm <= warps; wm *= 2 {
		wn := warps / wm
		if tb.M%wm != 0 || tb.N%wn != 0 {
			continue
		}
		warp := cutlass.Shape3{M: tb.M / wm, N: tb.N / wn, K: tb.K}
		if warp.M%inst.M != 0 || warp.N%inst.N != 0 || warp.K%inst.K != 0 {
			continue
		}
		out = append(out, warp)
	}
	return out
}

func dedupConfigs(in []cutlass.GemmConfig) []cutlass.GemmConfig {
	type configKey struct {
		TB, Warp                   cutlass.Shape3
		Stages, SwizzleLog, AlignA int
	}
	seen := make(map[configKey]bool, len(in))
	out := in[:0]
	for _, c := range in {
		key := configKey{c.TB, c.Warp, c.Stages, c.SwizzleLog, c.AlignA}
		if !seen[key] {
			seen[key] = true
			out = append(out, c)
		}
	}
	return out
}

// chargeCompile charges the one-time sample-program build cost.
func (p *Profiler) chargeCompile(name string) {
	if p.compiled[name] {
		return
	}
	p.compiled[name] = true
	if p.clock != nil {
		p.clock.Advance(p.CompileLatency)
	}
}

// Plan enumerates a workload's candidates and applies the profiler's
// guidance. It charges no clock and takes no measurement. Without an
// applicable model it returns a full sweep in enumeration order (the
// exact unguided behavior). With one, it ranks candidates by predicted
// time (stable sort, so ties keep enumeration order and the plan is
// deterministic), then either keeps the top-k or — when held-out
// confidence clears the trust threshold — resolves the workload
// measurement-free from the prediction.
func (p *Profiler) Plan(w Workload) (Plan, error) {
	cands := w.candidates(p)
	if len(cands) == 0 {
		return Plan{}, fmt.Errorf("profiler: no valid candidates for %v", w)
	}
	pl := Plan{Enumerated: len(cands), Measure: cands}
	g := p.Guide
	if !g.on() || !g.Model.Trained() {
		return pl, nil
	}
	wl := w.model(p.dev)
	preds := make([]float64, len(cands))
	var f []float64
	for i, cfg := range cands {
		f = wl.AppendFeatures(f[:0], cfg, p.dev)
		preds[i] = g.Model.Predict(f)
	}
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return preds[idx[a]] < preds[idx[b]] })
	if g.TrustThreshold > 0 && g.Model.Confidence() >= g.TrustThreshold {
		pl.Guided = true
		pl.Predicted = true
		pl.Config = cands[idx[0]]
		pl.Time = math.Exp(preds[idx[0]])
		pl.Measure = nil
		return pl, nil
	}
	// Only cut the list when top-k actually shrinks it; a full-length
	// sweep stays in enumeration order so a below-threshold trust gate
	// falls back to exactly the unguided measurement sequence.
	if k := g.TopK; k > 0 && k < len(cands) {
		ranked := make([]cutlass.GemmConfig, k)
		for i, j := range idx[:k] {
			ranked[i] = cands[j]
		}
		pl.Guided = true
		pl.Measure = ranked
	}
	return pl, nil
}

// ProfileGemm measures a GEMM workload's candidates (all of them, or
// the guided subset) and returns the fastest, caching the result.
func (p *Profiler) ProfileGemm(w GemmWorkload) (Result, error) { return p.profile(w) }

// ProfileConv is ProfileGemm for a convolution.
func (p *Profiler) ProfileConv(w ConvWorkload) (Result, error) { return p.profile(w) }

func (p *Profiler) profile(w Workload) (Result, error) {
	p.mu.Lock()
	r, ok := p.cache[w]
	p.mu.Unlock()
	if ok {
		return r, nil
	}
	plan, err := p.Plan(w)
	if err != nil {
		return Result{}, err
	}
	return p.ProfilePlan(w, plan)
}

// ProfilePlan resolves a workload according to a previously computed
// plan: a predicted plan caches the model's pick without measuring
// (zero tuning-clock charge); otherwise exactly the planned candidates
// are compiled and measured. Every measurement is fed back to the
// guidance model (training is a separate, explicit Fit so the ranking
// stays frozen while a profiling pool is in flight).
func (p *Profiler) ProfilePlan(w Workload, plan Plan) (Result, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r, ok := p.cache[w]; ok {
		return r, nil
	}
	if plan.Predicted {
		r := Result{Config: plan.Config, Time: plan.Time, Enumerated: plan.Enumerated, Predicted: true, PredictionError: -1}
		p.cache[w] = r
		return r, nil
	}
	if len(plan.Measure) == 0 {
		return Result{}, fmt.Errorf("profiler: empty measurement plan for %v", w)
	}
	rng := workloadRNG(w.Group())
	var wl *costmodel.Workload
	if p.Guide.Model != nil {
		wl = w.model(p.dev)
	}
	best := Result{Time: -1, Candidates: len(plan.Measure), Enumerated: plan.Enumerated, PredictionError: -1}
	bestPred := math.NaN()
	for _, cfg := range plan.Measure {
		p.chargeCompile(cfg.Name())
		t := gpu.Measure(p.dev, w.desc(cfg, p.dev), p.Measure, rng, p.clock)
		pred := math.NaN()
		if wl != nil && t > 0 {
			if p.Guide.on() && p.Guide.Model.Trained() {
				pred = p.Guide.Model.Predict(wl.AppendFeatures(nil, cfg, p.dev))
			}
			p.Guide.Model.Observe(costmodel.Observation{Workload: wl, Config: cfg, Y: math.Log(t)})
		}
		if best.Time < 0 || t < best.Time {
			best.Time = t
			best.Config = cfg
			bestPred = pred
		}
	}
	if !math.IsNaN(bestPred) && best.Time > 0 {
		best.PredictionError = math.Abs(math.Exp(bestPred)-best.Time) / best.Time
	}
	p.cache[w] = best
	return best, nil
}

// RankGemm returns all candidates with their measured times, sorted
// fastest first (for cmd/boltprof's candidate dump).
func (p *Profiler) RankGemm(w GemmWorkload) ([]cutlass.GemmConfig, []float64) {
	cands := p.GemmCandidates(w)
	times := make([]float64, len(cands))
	for i, cfg := range cands {
		g := &cutlass.Gemm{Config: cfg, Epilogue: cutlass.DefaultEpilogue()}
		times[i] = p.dev.KernelTime(g.Desc(p.dev, w.M, w.N, w.K))
	}
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return times[idx[a]] < times[idx[b]] })
	outC := make([]cutlass.GemmConfig, len(cands))
	outT := make([]float64, len(cands))
	for i, j := range idx {
		outC[i], outT[i] = cands[j], times[j]
	}
	return outC, outT
}
