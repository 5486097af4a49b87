package bench

import (
	"fmt"
	"time"

	"bolt/internal/accuracy"
	"bolt/internal/codegen"
	"bolt/internal/gpu"
	"bolt/internal/models"
	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/serve"
	"bolt/internal/tensor"
	"bolt/internal/tunelog"
)

// The precision experiment exercises the PR-8 mixed-precision serving
// path end to end: one BERT FFN model (the examples/bert workload in
// served form — GELU rides the up-projection GEMM's epilogue) deployed
// at FP32, FP16, and INT8 on an A100 worker, each arm accuracy-gated
// against the FP32 RunUnplanned oracle at deploy time and then flooded
// with the identical seeded Poisson request stream. A fourth arm
// requests INT8 under an impossible budget to demonstrate the FP32
// fallback. Every number is computed on the simulated clocks, so the
// experiment is deterministic.

// precisionGELUModel is the served BERT-base FFN block at batch 1.
func precisionGELUModel() *relay.Graph { return models.BERTMLP(1, 768, 3072) }

// precisionRow is one arm's measured result.
type precisionRow struct {
	Arm        string
	Requested  string
	Served     string
	Budget     float64
	Divergence float64
	FellBack   bool
	Requests   int64
	Throughput float64
	MakespanUs float64
	P50Us      float64
	P99Us      float64
	Batch8Us   float64
}

// precisionResult is the experiment's measured result: the table and the
// tests read it.
type precisionResult struct {
	Model    string
	Device   string
	Requests int
	Rows     []precisionRow
	// Launch counts of the batch-8 FP16 variant vs its graph's anchor
	// count: BiasAdd+GELU ride the GEMM epilogues, so the whole FFN
	// block is two launches.
	FP16Launches int
	// The CI-enforced numbers: served-throughput ratios under the same
	// Poisson stream, and the fallback demonstration.
	FP16VsFP32            float64
	INT8VsFP16            float64
	FallbackDemonstrated  bool
	DivergencesWithinGate bool
}

// precisionCompilerOn compiles a precision-cast graph for one device
// through the shared tuning log (dtype-scoped keys keep FP32/FP16/INT8
// variants of the same shapes apart in one cache).
func precisionCompilerOn(dev *gpu.Device, log *tunelog.Log) func(*relay.Graph) (*rt.Module, error) {
	return func(g *relay.Graph) (*rt.Module, error) {
		if err := relay.Optimize(g, dev); err != nil {
			return nil, err
		}
		p, _ := newProfilerOn(dev)
		return codegen.Compile(g, dev, codegen.Options{
			Tuner: codegen.TunerBolt, Profiler: p, Log: log,
		})
	}
}

func (s *Suite) runPrecision() precisionResult {
	requests := s.PrecisionRequests
	requests -= requests % 8 // full largest buckets only
	if requests < 16 {
		requests = 16
	}
	dev := gpu.A100()
	log := tunelog.New()
	compile := precisionCompilerOn(dev, log)

	arms := []struct {
		name   string
		dt     tensor.DType
		budget float64
	}{
		{"fp32", tensor.FP32, 0},
		{"fp16", tensor.FP16, 0.05},
		{"int8", tensor.INT8, 0.25},
		// An impossible budget: the gate must reject INT8 and serve FP32.
		{"int8-tight", tensor.INT8, 1e-9},
	}

	// Gate every arm first (this also primes the shared tuning log), and
	// price each deployed graph's full bucket to find the fastest arm —
	// the Poisson stream is sized to saturate it, so every arm's
	// makespan measures serving capacity, not the arrival span.
	deployed := make([]*relay.Graph, len(arms))
	reports := make([]accuracy.DivergenceReport, len(arms))
	cost8 := make([]float64, len(arms))
	mod8 := make([]*rt.Module, len(arms))
	for i, a := range arms {
		g, rep, err := accuracy.GatePrecision(precisionGELUModel(), a.dt, a.budget, 2, 20518, compile)
		if err != nil {
			panic(err)
		}
		deployed[i], reports[i] = g, rep
		vg, err := relay.Rebatch(g, 8)
		if err != nil {
			panic(err)
		}
		m, err := compile(vg)
		if err != nil {
			panic(err)
		}
		mod8[i] = m
		cost8[i] = m.Time()
	}
	fastest := cost8[0]
	for _, c := range cost8[1:] {
		if c < fastest {
			fastest = c
		}
	}
	arrivals := PoissonArrivals(requests, 0.25*fastest/8, 23)
	inputs := make([]map[string]*tensor.Tensor, requests)
	for i := range inputs {
		in := tensor.New(tensor.FP16, 1, 768)
		in.FillRandom(int64(i+1), 1)
		inputs[i] = map[string]*tensor.Tensor{"tokens": in}
	}

	art := precisionResult{
		Model:    "bert-mlp-768-3072",
		Device:   dev.Name,
		Requests: requests,
	}
	var fp32TP, fp16TP, int8TP float64
	for i, a := range arms {
		srv := serve.NewServer(serve.ServerOptions{
			Devices:     []*gpu.Device{dev},
			QueueDepth:  requests,
			BatchWindow: 10 * time.Millisecond,
			CompileJobs: 2,
			Trace:       s.Trace,
			TraceLabel:  "precision " + a.name,
		})
		if err := srv.Deploy("bertmlp", s.tenantCompiler(deployed[i], log), serve.DeployOptions{
			Buckets: []int{1, 2, 4, 8},
		}); err != nil {
			panic(err)
		}
		if err := srv.Warm("bertmlp"); err != nil {
			panic(err)
		}
		chans := make([]<-chan serve.Result, requests)
		for r := range inputs {
			ch, err := srv.InferAsync("bertmlp", inputs[r], serve.InferOptions{
				Priority:   serve.PriorityBulk,
				SimArrival: arrivals[r],
			})
			if err != nil {
				panic(err)
			}
			chans[r] = ch
		}
		for _, ch := range chans {
			if res := <-ch; res.Err != nil {
				panic(res.Err)
			}
		}
		st := srv.Stats()
		srv.Close()
		rep := reports[i]
		row := precisionRow{
			Arm:        a.name,
			Requested:  rep.Requested.String(),
			Served:     rep.Served.String(),
			Budget:     rep.Budget,
			Divergence: rep.Divergence,
			FellBack:   rep.Fallback,
			Requests:   st.Requests,
			Throughput: st.Throughput(),
			MakespanUs: st.SimMakespan * 1e6,
			P50Us:      st.LatencyPercentile(50) * 1e6,
			P99Us:      st.LatencyPercentile(99) * 1e6,
			Batch8Us:   cost8[i] * 1e6,
		}
		art.Rows = append(art.Rows, row)
		switch a.name {
		case "fp32":
			fp32TP = row.Throughput
		case "fp16":
			fp16TP = row.Throughput
			art.FP16Launches = mod8[i].LaunchCount()
		case "int8":
			int8TP = row.Throughput
		case "int8-tight":
			art.FallbackDemonstrated = rep.Fallback && rep.Served == tensor.FP32
		}
	}
	if fp32TP > 0 {
		art.FP16VsFP32 = fp16TP / fp32TP
	}
	if fp16TP > 0 {
		art.INT8VsFP16 = int8TP / fp16TP
	}
	art.DivergencesWithinGate = true
	for i, a := range arms {
		rep := reports[i]
		if a.budget > 0 && !rep.Fallback && rep.Divergence > a.budget {
			art.DivergencesWithinGate = false
		}
	}
	return art
}

// Precision reproduces the mixed-precision serving experiment: the
// BERT FFN workload deployed at FP32/FP16/INT8 with deploy-time
// accuracy gating, identical seeded Poisson streams replayed against
// each precision arm on an A100 worker, plus the forced-fallback arm.
func (s *Suite) Precision() *Table {
	art := s.runPrecision()
	t := &Table{
		ID:      "precision",
		Title:   fmt.Sprintf("Mixed-precision serving: %d Poisson requests per arm on %s (simulated device time)", art.Requests, art.Device),
		Columns: []string{"arm", "served", "divergence", "imgs/s", "makespan us", "p99 us", "batch-8 us"},
		Notes: []string{
			"BERT-base FFN block (768-3072-768); BiasAdd+GELU ride the GEMM epilogues",
			fmt.Sprintf("FP16 batch-8 variant launches %d kernels for the whole block", art.FP16Launches),
			fmt.Sprintf("served throughput under the same stream: FP16 %.2fx FP32, INT8 %.2fx FP16 (CI-enforced)",
				art.FP16VsFP32, art.INT8VsFP16),
			"int8-tight requests INT8 under a 1e-9 budget: the gate rejects it and serves FP32",
		},
	}
	for _, r := range art.Rows {
		div := "-"
		if r.Divergence >= 0 {
			div = fmt.Sprintf("%.2e", r.Divergence)
		}
		served := r.Served
		if r.FellBack {
			served += " (fallback)"
		}
		t.AddRow(r.Arm, served, div, i0(r.Throughput), f1(r.MakespanUs), f1(r.P99Us), f1(r.Batch8Us))
	}
	return t
}
