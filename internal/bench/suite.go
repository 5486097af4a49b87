package bench

import (
	"bolt/internal/ansor"
	"bolt/internal/cublaslike"
	"bolt/internal/gpu"
	"bolt/internal/obs"
	"bolt/internal/profiler"
)

// Suite holds the shared state for running the paper's experiments on
// one device.
type Suite struct {
	Dev *gpu.Device
	Lib *cublaslike.Library

	// MicroTrials is the Ansor budget per microbenchmark workload (the
	// paper tunes 2000 trials per workload for Figures 1 and 8).
	MicroTrials int
	// E2ETrialsPerTask is the Ansor budget per task for the end-to-end
	// study (the paper's "recommended 900 x the number of tasks").
	E2ETrialsPerTask int
	// Batch is the inference batch size (32 throughout the paper).
	Batch int
	// ServingRequests is the flood size for the serving experiment.
	ServingRequests int
	// MultiModelRequests is the per-tenant flood size for the
	// multi-tenant serving experiment.
	MultiModelRequests int
	// HeteroRequests is the Poisson-stream size for the heterogeneous
	// device-pool experiment (rounded down to full bucket-8 batches).
	HeteroRequests int
	// PaddingRequests is the Poisson-stream size for the padded-dispatch
	// / continuous-batching ablation (rounded down to a multiple of the
	// largest bucket so the strict baseline is deterministic).
	PaddingRequests int
	// PrecisionRequests is the per-arm Poisson-stream size for the
	// mixed-precision serving experiment (rounded down to full bucket-8
	// batches).
	PrecisionRequests int
	// FleetRequests is the Poisson-stream size for the replicated-fleet
	// experiment (rounded down to full bucket-8 batches).
	FleetRequests int
	// Trace, when set, records the serving experiments'
	// request-lifecycle spans — every serving arm's server is handed
	// this tracer, with the arm's name as its process label (boltbench
	// wires -trace here). Tracing never changes the measured numbers:
	// modeled results are bit-identical with and without it.
	Trace *obs.Tracer
	// StallTrace, when set, records the fleet experiment's
	// worker-stall arm separately, so the hedged-recovery span tree
	// (route/hedge wrapping the replicas' request spans) is inspectable
	// without the healthy arm's traffic interleaved (boltbench derives
	// its output path from -trace).
	StallTrace *obs.Tracer

	seed     int64
	e2eCache []e2eResult
}

// NewSuite builds a full-fidelity suite (paper trial budgets).
func NewSuite(dev *gpu.Device) *Suite {
	return &Suite{
		Dev: dev, Lib: cublaslike.New(dev),
		MicroTrials: 2000, E2ETrialsPerTask: 900, Batch: 32,
		ServingRequests: 96, MultiModelRequests: 64, HeteroRequests: 128,
		PaddingRequests: 128, PrecisionRequests: 64, FleetRequests: 96,
		seed: 1,
	}
}

// NewQuickSuite reduces tuning budgets so the whole suite runs in
// seconds (for tests and -quick runs). Reported tuning times are
// scaled back to the paper's budgets (see Figure10b notes).
func NewQuickSuite(dev *gpu.Device) *Suite {
	s := NewSuite(dev)
	s.MicroTrials = 192
	s.E2ETrialsPerTask = 96
	s.ServingRequests = 48
	s.MultiModelRequests = 32
	s.HeteroRequests = 48
	s.PaddingRequests = 48
	s.PrecisionRequests = 32
	s.FleetRequests = 48
	return s
}

// devices returns a pool of n workers that all model the suite's
// device.
func (s *Suite) devices(n int) []*gpu.Device {
	pool := make([]*gpu.Device, n)
	for i := range pool {
		pool[i] = s.Dev
	}
	return pool
}

// newProfiler builds a Bolt profiler with an attached tuning clock.
func (s *Suite) newProfiler() (*profiler.Profiler, *gpu.Clock) {
	return newProfilerOn(s.Dev)
}

// newProfilerOn is newProfiler for an explicit device (the
// heterogeneous experiments profile per device class). Noise-free, so
// every suite experiment is deterministic.
func newProfilerOn(dev *gpu.Device) (*profiler.Profiler, *gpu.Clock) {
	var clock gpu.Clock
	p := profiler.New(dev, &clock)
	p.Measure.NoiseStdDev = 0
	return p, &clock
}

// newAnsor builds a baseline tuner with an attached tuning clock.
func (s *Suite) newAnsor() (*ansor.Tuner, *gpu.Clock) {
	var clock gpu.Clock
	s.seed++
	return ansor.NewTuner(s.Dev, &clock, s.seed), &clock
}

// ByID returns the experiment regenerator for an id like "fig8a".
func (s *Suite) ByID(id string) func() *Table {
	m := map[string]func() *Table{
		"fig1": s.Figure1, "fig8a": s.Figure8a, "fig8b": s.Figure8b,
		"fig9a": s.Figure9a, "fig9b": s.Figure9b,
		"tab1": s.Table1, "tab2": s.Table2, "tab3": s.Table3,
		"fig10a": s.Figure10a, "fig10b": s.Figure10b,
		"tab4": s.Table4, "tab5": s.Table5, "tab6": s.Table6,
	}
	return m[id]
}

// IDs lists experiment ids in paper order.
func IDs() []string {
	return []string{"fig1", "fig8a", "fig8b", "fig9a", "fig9b",
		"tab1", "tab2", "tab3", "fig10a", "fig10b", "tab4", "tab5", "tab6"}
}
