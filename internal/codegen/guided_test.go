package codegen

import (
	"bytes"
	"math"
	"testing"

	"bolt/internal/costmodel"
	"bolt/internal/gpu"
	"bolt/internal/models"
	"bolt/internal/profiler"
	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/tunelog"
)

// guidedCompile runs the full Bolt pipeline against a tuning log with
// the guidance knobs set, returning the module and its stats.
func guidedCompile(t *testing.T, g *relay.Graph, dev *gpu.Device, log *tunelog.Log, topK int, trust float64, jobs int) *rt.Module {
	t.Helper()
	p := profiler.New(dev, nil)
	p.Measure.NoiseStdDev = 0
	m, err := Build(g, dev, Options{
		Profiler: p, Log: log,
		Jobs: jobs, TopK: topK, TrustThreshold: trust,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// coldLogWithModel builds an entry-free tuning log that carries an
// already-trained cost model — the warm-process cold-model-compile
// scenario (model persisted in the tunelog, cache entries for these
// workloads absent).
func coldLogWithModel(t *testing.T, trained *tunelog.Log) *tunelog.Log {
	t.Helper()
	cold := tunelog.New()
	cold.Model.Ingest(trained.Model)
	if !cold.Model.Trained() {
		t.Fatal("transferred model is untrained")
	}
	return cold
}

// trainOnResNet full-sweeps ResNet-18 into a fresh log, training the
// log's model from every measurement, and returns the log plus the
// oracle module.
func trainOnResNet(t *testing.T, dev *gpu.Device) (*tunelog.Log, *rt.Module) {
	t.Helper()
	log := tunelog.New()
	m := guidedCompile(t, models.ResNet(18, 8), dev, log, 0, 0, 4)
	if !log.Model.Trained() {
		t.Fatal("full-sweep compile with a log must train the log's model")
	}
	if m.Tuning.Measurements != m.Tuning.EnumeratedCandidates {
		t.Fatalf("unguided sweep must measure everything: %d of %d",
			m.Tuning.Measurements, m.Tuning.EnumeratedCandidates)
	}
	return log, m
}

func TestGuidedPipelineCutsTuningTimeAtMatchedQuality(t *testing.T) {
	dev := gpu.T4()
	trained, oracle := trainOnResNet(t, dev)

	cold := coldLogWithModel(t, trained)
	guided := guidedCompile(t, models.ResNet(18, 8), dev, cold, 8, 0, 4)

	gs, os := guided.Tuning, oracle.Tuning
	if gs.CacheHits != 0 {
		t.Fatalf("cold log should have no cache hits, got %d", gs.CacheHits)
	}
	if gs.Measurements > 8*gs.ProfiledWorkloads {
		t.Errorf("guided run measured %d candidates across %d workloads, budget 8 each",
			gs.Measurements, gs.ProfiledWorkloads)
	}
	if gs.SkippedCandidates != gs.EnumeratedCandidates-gs.Measurements {
		t.Errorf("skip accounting inconsistent: %d skipped, %d enumerated, %d measured",
			gs.SkippedCandidates, gs.EnumeratedCandidates, gs.Measurements)
	}
	if gs.TuningSeconds > 0.5*os.TuningSeconds {
		t.Errorf("guided cold compile cost %.1fs vs full sweep %.1fs, want <= 0.5x",
			gs.TuningSeconds, os.TuningSeconds)
	}
	if ratio := guided.Time() / oracle.Time(); ratio > 1.05 {
		t.Errorf("guided module runs at %.4fx the oracle, want <= 1.05x", ratio)
	}
	if gs.PredictionError < 0 {
		t.Error("guided run consulted a trained model; mean prediction error must be reported")
	}
}

func TestGuidedPipelineIsWorkerCountInvariant(t *testing.T) {
	dev := gpu.T4()
	trained, _ := trainOnResNet(t, dev)

	a := guidedCompile(t, models.ResNet(18, 8), dev, coldLogWithModel(t, trained), 8, 0, 1)
	b := guidedCompile(t, models.ResNet(18, 8), dev, coldLogWithModel(t, trained), 8, 0, 8)
	if len(a.Kernels) != len(b.Kernels) {
		t.Fatalf("kernel counts differ: %d vs %d", len(a.Kernels), len(b.Kernels))
	}
	for i := range a.Kernels {
		ka, kb := a.Kernels[i], b.Kernels[i]
		if ka.Name != kb.Name || ka.Desc != kb.Desc {
			t.Errorf("kernel %d differs across pool widths: %s vs %s", i, ka.Name, kb.Name)
		}
	}
	if a.Tuning.Measurements != b.Tuning.Measurements ||
		a.Tuning.PredictedWorkloads != b.Tuning.PredictedWorkloads {
		t.Errorf("guided stats differ across pool widths: %+v vs %+v", a.Tuning, b.Tuning)
	}
}

func TestPredictOnlyCompileMeasuresNothing(t *testing.T) {
	dev := gpu.T4()
	trained, oracle := trainOnResNet(t, dev)
	conf := trained.Model.Confidence()
	if conf <= 0.3 {
		t.Fatalf("trained model confidence %.3f too low for a predict-only test", conf)
	}

	cold := coldLogWithModel(t, trained)
	m := guidedCompile(t, models.ResNet(18, 8), dev, cold, 0, conf*0.9, 4)

	s := m.Tuning
	if s.PredictedWorkloads != s.ProfiledWorkloads || s.PredictedWorkloads == 0 {
		t.Fatalf("want every workload predicted, got %d of %d", s.PredictedWorkloads, s.ProfiledWorkloads)
	}
	if s.Measurements != 0 || s.SamplePrograms != 0 || s.TuningSeconds != 0 {
		t.Errorf("predict-only compile must be measurement-free: %+v", s)
	}
	if ratio := m.Time() / oracle.Time(); ratio > 1.05 {
		t.Errorf("predict-only module runs at %.4fx the oracle, want <= 1.05x", ratio)
	}

	// The measurement-free entries must round-trip flagged as predicted.
	var buf bytes.Buffer
	if err := cold.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded := tunelog.New()
	if err := reloaded.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	predicted := 0
	for _, tsk := range extractTasks(t, dev) {
		if e, ok := reloaded.Lookup(tsk); ok && e.Predicted {
			predicted++
		}
	}
	if predicted != s.PredictedWorkloads {
		t.Errorf("%d predicted entries in reloaded log, stats say %d", predicted, s.PredictedWorkloads)
	}
}

// extractTasks returns the tunelog keys of ResNet-18's tuning tasks.
func extractTasks(t *testing.T, dev *gpu.Device) []tunelog.Key {
	t.Helper()
	g := models.ResNet(18, 8)
	if err := relay.Optimize(g, dev); err != nil {
		t.Fatal(err)
	}
	unique, _ := extractWorkloads(g, dev)
	keys := make([]tunelog.Key, len(unique))
	for i, u := range unique {
		keys[i] = u.key
	}
	return keys
}

func TestGuidedKnobsRequireModelSource(t *testing.T) {
	dev := gpu.T4()
	p := profiler.New(dev, nil)
	p.Measure.NoiseStdDev = 0
	if _, err := Build(models.ResNet(18, 8), dev, Options{Profiler: p, TopK: 8}); err == nil {
		t.Error("TopK with no model source must fail loudly, not silently full-sweep")
	}
	if _, err := Build(models.ResNet(18, 8), dev, Options{Profiler: p, TrustThreshold: 0.5}); err == nil {
		t.Error("TrustThreshold with no model source must fail loudly")
	}
}

// TestDeferredPipelineFitMatchesEager checks that the model a cold
// compile trains, whose fit waits for its first use, answers bit for
// bit as a predictor that ingested the same rows and fitted at once:
// its prediction for every candidate of every workload, and its
// confidence.
func TestDeferredPipelineFitMatchesEager(t *testing.T) {
	dev := gpu.T4()
	g := models.ResNet(18, 1)
	log := tunelog.New()
	if _, err := Build(g, dev, Options{Profiler: profiler.New(dev, nil), Log: log, Jobs: 2}); err != nil {
		t.Fatal(err)
	}
	eager := costmodel.NewPredictor(1)
	eager.IngestRows(log.Model.State().Obs)
	eager.Fit()
	if !eager.Trained() || !log.Model.Trained() {
		t.Fatalf("trained: eager %v, deferred %v", eager.Trained(), log.Model.Trained())
	}

	tasks, _ := extractWorkloads(g, dev)
	planner := profiler.New(dev, nil)
	n := 0
	for _, task := range tasks {
		pl, err := planner.Plan(task.w)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range pl.Measure {
			var f []float64
			switch w := task.w.(type) {
			case profiler.GemmWorkload:
				f = costmodel.Features(cfg, w.M, w.N, w.K, nil, dev)
			case profiler.ConvWorkload:
				m, n, k := w.Shape.ImplicitGemm()
				f = costmodel.Features(cfg, m, n, k, &w.Shape, dev)
			}
			got, want := log.Model.Predict(f), eager.Predict(f)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %s: deferred fit predicts %v, eager %v", task.key, cfg.Name(), got, want)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no candidates predicted")
	}
	if got, want := log.Model.Confidence(), eager.Confidence(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("deferred fit's confidence %v, eager %v", got, want)
	}
}
