package bench

import (
	"fmt"

	"bolt/internal/codegen"
	"bolt/internal/gpu"
	"bolt/internal/models"
	"bolt/internal/rt"
	"bolt/internal/tunelog"
)

// The coldstart experiment is the guided-tuning ablation: what does
// cost-model
// guidance buy on a cold tuning log? On each device class (T4 and
// A100) a full sweep of ResNet-18 trains the log's cost model; the
// trained model is then transferred into fresh *entry-free* logs — the
// warm-process/cold-workload scenario — and the same model is compiled
// again under top-k guidance and under the predict-only trust gate.
// Everything is noise-free and single-seeded, so the result is
// byte-stable across runs.

// coldstartTopK is the guided arm's per-workload measurement budget.
const coldstartTopK = 8

// coldstartRow is one (device, arm) compile.
type coldstartRow struct {
	Device string
	Arm    string
	// Budget is the per-workload measurement cap (0 = unbounded).
	Budget             int
	ProfiledWorkloads  int
	Measurements       int
	Enumerated         int
	PredictedWorkloads int
	TuningSeconds      float64
	// TuningVsFull is this arm's tuning cost relative to the same
	// device's full sweep (CI enforces <= 0.5 for the guided arms).
	TuningVsFull float64
	ModuleUs     float64
	// SlowdownVsFull compares end-to-end modeled module time against
	// the full sweep's picks (CI enforces <= 1.05).
	SlowdownVsFull  float64
	PredictionError float64
}

// coldstartDevice is one device's arm set plus its model confidence.
type coldstartDevice struct {
	Device     string
	Confidence float64
	Trust      float64
	Rows       []coldstartRow
}

// coldstartResult is the experiment's measured result: the table and the
// tests read it.
type coldstartResult struct {
	Model   string
	TopK    int
	Devices []coldstartDevice
}

// coldstartCompile runs the templated recipe for ResNet-18 against
// the given log with the guidance knobs set.
func (s *Suite) coldstartCompile(dev *gpu.Device, log *tunelog.Log, topK int, trust float64) *rt.Module {
	m, _, err := compileOn(models.ResNet(18, s.Batch), dev, codegen.Options{
		Log: log, Jobs: 4, TopK: topK, TrustThreshold: trust,
	})
	if err != nil {
		panic(err)
	}
	return m
}

func (s *Suite) runColdstart() coldstartResult {
	art := coldstartResult{
		Model: fmt.Sprintf("resnet18-b%d", s.Batch),
		TopK:  coldstartTopK,
	}
	for _, dev := range []*gpu.Device{gpu.T4(), gpu.A100()} {
		// Arm 1: the cold full sweep. Its measurements train the log's
		// cost model, and its tuning bill and kernel picks are the
		// baselines the guided arms are judged against.
		trainLog := tunelog.New()
		full := s.coldstartCompile(dev, trainLog, 0, 0)
		conf := trainLog.Model.Confidence()
		trust := conf * 0.9

		// The guided arms get the trained model but none of the cache
		// entries: fresh logs, model transferred — exactly what a warm
		// process sees when a new model's workloads arrive.
		coldLog := func() *tunelog.Log {
			l := tunelog.New()
			l.Model.Ingest(trainLog.Model)
			return l
		}
		topk := s.coldstartCompile(dev, coldLog(), coldstartTopK, 0)
		predict := s.coldstartCompile(dev, coldLog(), 0, trust)

		row := func(arm string, budget int, m *rt.Module) coldstartRow {
			st := m.Tuning
			r := coldstartRow{
				Device: dev.Name, Arm: arm, Budget: budget,
				ProfiledWorkloads:  st.ProfiledWorkloads,
				Measurements:       st.Measurements,
				Enumerated:         st.EnumeratedCandidates,
				PredictedWorkloads: st.PredictedWorkloads,
				TuningSeconds:      st.TuningSeconds,
				ModuleUs:           m.Time() * 1e6,
				PredictionError:    st.PredictionError,
			}
			if fs := full.Tuning.TuningSeconds; fs > 0 {
				r.TuningVsFull = st.TuningSeconds / fs
			}
			r.SlowdownVsFull = m.Time() / full.Time()
			return r
		}
		art.Devices = append(art.Devices, coldstartDevice{
			Device: dev.Name, Confidence: conf, Trust: trust,
			Rows: []coldstartRow{
				row("full sweep", 0, full),
				row(fmt.Sprintf("top-%d", coldstartTopK), coldstartTopK, topk),
				row("predict-only", 0, predict),
			},
		})
	}
	return art
}

// Coldstart reproduces the cost-model-guided cold-compile study: a
// full sweep trains the tunelog's cost model, then the same model is
// recompiled against entry-free logs under top-k guidance and the
// predict-only trust gate, on both device classes.
func (s *Suite) Coldstart() *Table {
	art := s.runColdstart()
	t := &Table{
		ID:      "coldstart",
		Title:   fmt.Sprintf("Cost-model-guided cold compile: %s, trained model vs entry-free tuning log", art.Model),
		Columns: []string{"device", "arm", "measured/enumerated", "predicted wl", "tuning s", "vs full", "module us", "slowdown"},
		Notes: []string{
			"the full sweep trains the log's ridge cost model; guided arms transfer only the model into fresh entry-free logs (warm process, cold workloads)",
			fmt.Sprintf("top-%d measures at most %d candidates per workload; predict-only resolves every workload measurement-free once held-out rank confidence clears the trust gate", coldstartTopK, coldstartTopK),
			"CI enforces: guided arms tune at <= 0.5x the full sweep with chosen kernels within 1.05x, and predict-only performs zero measurements",
		},
	}
	for _, d := range art.Devices {
		for _, r := range d.Rows {
			t.AddRow(r.Device, r.Arm,
				fmt.Sprintf("%d/%d", r.Measurements, r.Enumerated),
				fmt.Sprint(r.PredictedWorkloads),
				f1(r.TuningSeconds), f2(r.TuningVsFull),
				f1(r.ModuleUs), f2(r.SlowdownVsFull))
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s model confidence %.3f (trust gate set to %.3f)", d.Device, d.Confidence, d.Trust))
	}
	return t
}
