package profiler

import (
	"testing"

	"bolt/internal/costmodel"
	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// trainGemmModel fits a predictor from noise-free full sweeps over a
// grid of GEMM workloads (the online-training path: a model attached
// to an unguided profiler learns from every measurement).
func trainGemmModel(t testing.TB, dev *gpu.Device) *costmodel.Predictor {
	t.Helper()
	model := costmodel.NewPredictor(1)
	p := New(dev, nil)
	p.Measure.NoiseStdDev = 0
	p.Guide = Guidance{Model: model}
	for _, m := range []int{64, 128, 256, 512, 1024} {
		for _, n := range []int{256, 768, 2048} {
			for _, k := range []int{256, 1024} {
				if _, err := p.ProfileGemm(GemmWorkload{M: m, N: n, K: k, DType: tensor.FP16}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	model.Fit()
	if !model.Trained() {
		t.Fatal("model did not train from the sweep observations")
	}
	return model
}

// fullSweep profiles a workload with no guidance at all.
func fullSweep(t testing.TB, dev *gpu.Device, w GemmWorkload) Result {
	t.Helper()
	p := New(dev, nil)
	p.Measure.NoiseStdDev = 0
	r, err := p.ProfileGemm(w)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// deviceTimeOf returns the noise-free device time of one config on a
// workload (the oracle's per-config quality measure).
func deviceTimeOf(t testing.TB, dev *gpu.Device, w GemmWorkload, cfg cutlass.GemmConfig) float64 {
	t.Helper()
	p := New(dev, nil)
	cands, times := p.RankGemm(w)
	for i, c := range cands {
		if c == cfg {
			return times[i]
		}
	}
	t.Fatalf("config %s not among candidates for %s", cfg.Name(), w)
	return 0
}

func TestGuidedTopKMeasuresAtMostK(t *testing.T) {
	dev := gpu.T4()
	model := trainGemmModel(t, dev)
	w := GemmWorkload{M: 384, N: 512, K: 512, DType: tensor.FP16}
	oracle := fullSweep(t, dev, w)

	var clock gpu.Clock
	p := New(dev, &clock)
	p.Measure.NoiseStdDev = 0
	p.Guide = Guidance{Model: model, TopK: 8}
	r, err := p.ProfileGemm(w)
	if err != nil {
		t.Fatal(err)
	}
	if r.Predicted {
		t.Fatal("top-k guidance must still measure, not predict")
	}
	if r.Candidates > 8 {
		t.Fatalf("guided profile measured %d candidates, budget 8", r.Candidates)
	}
	if r.Enumerated <= 8 {
		t.Fatalf("enumeration (%d) should exceed the top-k budget, else the test is vacuous", r.Enumerated)
	}
	if oracle.Candidates != oracle.Enumerated {
		t.Fatalf("unguided sweep should measure all %d enumerated, measured %d", oracle.Enumerated, oracle.Candidates)
	}
	if ratio := r.Time / oracle.Time; ratio > 1.15 {
		t.Fatalf("guided pick is %.3fx the full-sweep oracle, want <= 1.15x", ratio)
	}
	if r.PredictionError < 0 {
		t.Fatalf("guided measured result should report a prediction error, got %v", r.PredictionError)
	}
}

func TestGuidedTuningTimeCut(t *testing.T) {
	dev := gpu.T4()
	model := trainGemmModel(t, dev)
	w := GemmWorkload{M: 384, N: 512, K: 512, DType: tensor.FP16}

	var fullClock gpu.Clock
	pf := New(dev, &fullClock)
	pf.Measure.NoiseStdDev = 0
	if _, err := pf.ProfileGemm(w); err != nil {
		t.Fatal(err)
	}

	var guidedClock gpu.Clock
	pg := New(dev, &guidedClock)
	pg.Measure.NoiseStdDev = 0
	pg.Guide = Guidance{Model: model, TopK: 8}
	if _, err := pg.ProfileGemm(w); err != nil {
		t.Fatal(err)
	}
	if g, f := guidedClock.Elapsed(), fullClock.Elapsed(); g > 0.5*f {
		t.Fatalf("guided tuning cost %.1fs vs full sweep %.1fs, want <= 0.5x", g, f)
	}
}

func TestGuidedDisabledIsBitIdentical(t *testing.T) {
	dev := gpu.T4()
	w := GemmWorkload{M: 384, N: 512, K: 512, DType: tensor.FP16}
	plain := fullSweep(t, dev, w)

	// A model attached with no TopK/TrustThreshold trains silently but
	// must not change measurement order, selection, or accounting.
	model := costmodel.NewPredictor(1)
	var clockA, clockB gpu.Clock
	pa := New(dev, &clockA)
	pa.Measure.NoiseStdDev = 0
	pa.Guide = Guidance{Model: model}
	ra, err := pa.ProfileGemm(w)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Config != plain.Config || ra.Time != plain.Time || ra.Candidates != plain.Candidates {
		t.Fatalf("observing-only guidance changed the result: %+v vs %+v", ra, plain)
	}

	// An untrained model with TopK set must fall back to the full sweep.
	pb := New(dev, &clockB)
	pb.Measure.NoiseStdDev = 0
	pb.Guide = Guidance{Model: costmodel.NewPredictor(1), TopK: 4}
	rb, err := pb.ProfileGemm(w)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Config != plain.Config || rb.Candidates != plain.Candidates {
		t.Fatalf("untrained model must not cut the sweep: %+v vs %+v", rb, plain)
	}
	if clockA.Elapsed() != clockB.Elapsed() {
		t.Fatalf("tuning clocks diverged: %v vs %v", clockA.Elapsed(), clockB.Elapsed())
	}
}

func TestTrustGateSkipsMeasurementWhenConfident(t *testing.T) {
	dev := gpu.T4()
	model := trainGemmModel(t, dev)
	conf := model.Confidence()
	if conf <= 0.3 {
		t.Fatalf("trained model confidence %.3f too low for this test's premise", conf)
	}
	w := GemmWorkload{M: 384, N: 512, K: 512, DType: tensor.FP16}
	oracle := fullSweep(t, dev, w)

	var clock gpu.Clock
	p := New(dev, &clock)
	p.Measure.NoiseStdDev = 0
	p.Guide = Guidance{Model: model, TrustThreshold: conf * 0.9}
	r, err := p.ProfileGemm(w)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Predicted {
		t.Fatalf("confidence %.3f >= threshold %.3f must skip measurement", conf, conf*0.9)
	}
	if r.Candidates != 0 {
		t.Fatalf("predicted resolution measured %d candidates, want 0", r.Candidates)
	}
	if r.Enumerated == 0 {
		t.Fatal("predicted resolution should still report the enumerated count")
	}
	if e := clock.Elapsed(); e != 0 {
		t.Fatalf("predicted resolution charged %.2fs tuning time, want 0", e)
	}
	// The predicted pick must be a real candidate of decent quality.
	trueTime := deviceTimeOf(t, dev, w, r.Config)
	if ratio := trueTime / oracle.Time; ratio > 1.25 {
		t.Fatalf("predicted pick runs at %.3fx the oracle, want <= 1.25x", ratio)
	}
}

func TestTrustGateRefusesPoisonedModel(t *testing.T) {
	dev := gpu.T4()
	w := GemmWorkload{M: 384, N: 512, K: 512, DType: tensor.FP16}

	// Poison: real candidates, targets replaced by a
	// deterministic pseudo-random stream uncorrelated with them. The
	// model trains (weights exist) but cannot rank held-out samples,
	// so its confidence must stay below any sane threshold.
	poisoned := costmodel.NewPredictor(1)
	enum := New(dev, nil)
	seed := uint64(0x9e3779b97f4a7c15)
	for _, m := range []int{64, 128, 256, 512, 1024} {
		for _, n := range []int{256, 768, 2048} {
			wl := GemmWorkload{M: m, N: n, K: 512, DType: tensor.FP16}
			mw := wl.model(dev)
			for _, cfg := range enum.GemmCandidates(wl) {
				seed = seed*6364136223846793005 + 1442695040888963407
				y := -14 + 6*float64(seed>>11)/float64(1<<53)
				poisoned.Observe(costmodel.Observation{Workload: mw, Config: cfg, Y: y})
			}
		}
	}
	poisoned.Fit()
	if !poisoned.Trained() {
		t.Fatal("poisoned model should still fit (that is the danger)")
	}
	if c := poisoned.Confidence(); c > 0.35 {
		t.Fatalf("poisoned model confidence %.3f should be low", c)
	}

	var clock gpu.Clock
	p := New(dev, &clock)
	p.Measure.NoiseStdDev = 0
	p.Guide = Guidance{Model: poisoned, TrustThreshold: 0.5}
	r, err := p.ProfileGemm(w)
	if err != nil {
		t.Fatal(err)
	}
	if r.Predicted {
		t.Fatal("trust gate accepted a poisoned model: measurement-free resolution below confidence")
	}
	if r.Candidates != r.Enumerated {
		t.Fatalf("below-threshold trust gate must fall back to the full sweep, measured %d/%d",
			r.Candidates, r.Enumerated)
	}
	plain := fullSweep(t, dev, w)
	if r.Config != plain.Config || r.Time != plain.Time {
		t.Fatalf("poisoned-model fallback changed selection: %+v vs %+v", r, plain)
	}
}

func TestGuidedConvProfileRespectsBudget(t *testing.T) {
	dev := gpu.A100()
	model := costmodel.NewPredictor(1)
	trainP := New(dev, nil)
	trainP.Measure.NoiseStdDev = 0
	trainP.Guide = Guidance{Model: model}
	shapes := []cutlass.ConvShape{
		{N: 8, H: 56, W: 56, IC: 64, OC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{N: 8, H: 28, W: 28, IC: 128, OC: 128, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{N: 8, H: 14, W: 14, IC: 256, OC: 256, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{N: 8, H: 56, W: 56, IC: 64, OC: 128, KH: 1, KW: 1, StrideH: 2, StrideW: 2},
		{N: 8, H: 28, W: 28, IC: 128, OC: 256, KH: 1, KW: 1, StrideH: 2, StrideW: 2},
		{N: 8, H: 56, W: 56, IC: 64, OC: 128, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{N: 8, H: 28, W: 28, IC: 128, OC: 256, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	}
	for _, s := range shapes {
		if _, err := trainP.ProfileConv(ConvWorkload{Shape: s, DType: tensor.FP16}); err != nil {
			t.Fatal(err)
		}
	}
	model.Fit()
	if !model.Trained() {
		t.Fatal("conv model did not train")
	}

	// Held out: a new combination of individually-seen implicit-GEMM
	// dims (M=6272, N=256, K=2304), the distribution guided serving
	// compiles actually face (new layers of a known model family).
	held := ConvWorkload{
		Shape: cutlass.ConvShape{N: 8, H: 28, W: 28, IC: 256, OC: 256, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		DType: tensor.FP16,
	}
	oracleP := New(dev, nil)
	oracleP.Measure.NoiseStdDev = 0
	oracle, err := oracleP.ProfileConv(held)
	if err != nil {
		t.Fatal(err)
	}
	g := New(dev, nil)
	g.Measure.NoiseStdDev = 0
	g.Guide = Guidance{Model: model, TopK: 8}
	r, err := g.ProfileConv(held)
	if err != nil {
		t.Fatal(err)
	}
	if r.Candidates > 8 || r.Enumerated <= 8 {
		t.Fatalf("guided conv measured %d of %d enumerated, want <= 8 of > 8", r.Candidates, r.Enumerated)
	}
	if ratio := r.Time / oracle.Time; ratio > 1.15 {
		t.Fatalf("guided conv pick is %.3fx the oracle, want <= 1.15x", ratio)
	}
}

// An unguided plan never asks the model anything, so a loaded model's
// pending fit stays pending through it: planning with the model
// attached allocates what planning without it does, while a guided
// plan pays for the fit.
func TestUnguidedPlanLeavesAPendingFitPending(t *testing.T) {
	dev := gpu.T4()
	rows := trainGemmModel(t, dev).State().Obs
	w := GemmWorkload{M: 384, N: 512, K: 512, DType: tensor.FP16}
	allocs := func(g Guidance, attach bool) float64 {
		return testing.AllocsPerRun(5, func() {
			model := costmodel.NewPredictor(1)
			model.IngestRows(rows) // the fit waits for first use
			p := New(dev, nil)
			if attach {
				g.Model = model
			}
			p.Guide = g
			if _, err := p.Plan(w); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A fit allocates hundreds of times; map growth moves a count by a
	// few.
	const slack = 8
	detached := allocs(Guidance{}, false)
	if unguided := allocs(Guidance{}, true); unguided > detached+slack {
		t.Errorf("an unguided plan made %v allocations with a pending model attached, %v without: it fitted", unguided, detached)
	}
	if guided := allocs(Guidance{TopK: 8}, true); guided < detached+10*slack {
		t.Errorf("setup: a guided plan made %v allocations, not far more than the %v of planning alone", guided, detached)
	}
}

// An unguided profile with a loaded model attached only feeds the model
// its measurements: it neither fits the model to score them nor reports
// a prediction error, allocating what a profile into an empty model
// does.
func TestUnguidedProfileAsksTheModelNothing(t *testing.T) {
	dev := gpu.T4()
	rows := trainGemmModel(t, dev).State().Obs
	w := GemmWorkload{M: 384, N: 512, K: 512, DType: tensor.FP16}
	profile := func(loaded bool) (r Result) {
		model := costmodel.NewPredictor(1)
		if loaded {
			model.IngestRows(rows) // the fit waits for first use
		}
		p := New(dev, nil)
		p.Guide = Guidance{Model: model}
		r, err := p.ProfileGemm(w)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r := profile(true); r.PredictionError != -1 {
		t.Errorf("an unguided profile reported a prediction error of %v, want -1", r.PredictionError)
	}
	allocs := func(loaded bool) float64 {
		return testing.AllocsPerRun(5, func() { profile(loaded) })
	}
	// A fit allocates hundreds of times; growing the loaded model's
	// rows and dedup map moves a count by tens.
	const slack = 64
	if empty, loaded := allocs(false), allocs(true); loaded > empty+slack {
		t.Errorf("an unguided profile made %v allocations into a loaded model, %v into an empty one: it fitted", loaded, empty)
	}
}
