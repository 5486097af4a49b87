package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"bolt/internal/codegen"
	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/serve"
	"bolt/internal/tensor"
	"bolt/internal/tunelog"
)

// The serving experiment exercises the concurrent serving engine:
// a seeded Poisson stream of single-sample requests is coalesced by
// the dynamic batcher into batch-bucketed runs over lazily compiled
// variants, and throughput/latency are measured on the simulated
// device clocks (one per worker) against the requests' simulated
// arrival times, so the numbers are deterministic, model what N device
// streams deliver, and reflect steady-state queueing.

// servingModel builds the batch-1 source CNN the serving experiment
// feeds through the dynamic batcher: small enough that functional
// execution stays affordable inside CI, deep enough that every batch
// variant carries real templated kernels.
func servingModel() *relay.Graph {
	b := relay.NewBuilder()
	x := b.Input("image", tensor.FP16, 1, 8, 32, 32)
	c := b.Conv2D(x, b.Weight("w1", 16, 3, 3, 8), 1, 1)
	c = b.BiasAdd(c, b.Weight("b1", 16))
	c = b.Activation(c, cutlass.ActReLU)
	c = b.MaxPool(c, 2, 2, 0)
	c = b.Conv2D(c, b.Weight("w2", 32, 3, 3, 16), 2, 1)
	c = b.BiasAdd(c, b.Weight("b2", 32))
	c = b.Activation(c, cutlass.ActReLU)
	g := b.GlobalAvgPool(c)
	d := b.Dense(g, b.Weight("fc", 32, 10))
	return b.Build(b.Softmax(d))
}

// tenantCompiler returns a serving variant compiler for one source
// graph: Rebatch the source at the bucket size and run the templated
// recipe for the worker's device, backed by a shared in-memory tuning
// log, so buckets whose workloads overlap (and recompiles of a bucket
// ever seen before) measure nothing. Multiple tenants sharing one log
// model the server-wide tuning cache; a T4 worker and an A100 worker
// each compile variants tuned for their own silicon while recording
// into that one log.
func (s *Suite) tenantCompiler(src *relay.Graph, log *tunelog.Log) serve.CompileFunc {
	return func(dev *gpu.Device, batch int) (*rt.Module, error) {
		g, err := relay.Rebatch(src, batch)
		if err != nil {
			return nil, err
		}
		m, _, err := compileOn(g, dev, codegen.Options{Log: log})
		return m, err
	}
}

// servingRun is one server configuration's measured result.
type servingRun struct {
	Workers    int
	MaxBucket  int
	Throughput float64
	P50Us      float64
	P99Us      float64
	Batches    map[int]int64
}

// servingResult is the experiment's measured result: the table and the
// tests read it.
type servingResult struct {
	Model    string
	Requests int
	Rows     []servingRun
	// WorkerScaling1To4 is throughput(workers=4)/throughput(workers=1)
	// at the full bucket set — the CI-enforced scaling number.
	WorkerScaling1To4 float64
	// Per-run steady-state allocations of Module.Run on the pooled
	// executor: one caller vs. eight concurrent callers. Concurrency
	// must not regress allocation behavior (acceptance: within 2x).
	SingleCallerAllocsPerRun      float64
	ConcurrentCallersAllocsPerRun float64
}

// measureRunAllocs reports steady-state allocations per Module.Run
// with the given caller count (the state pool is pre-filled so the
// measurement sees only the hot path).
func measureRunAllocs(mod *rt.Module, inputs map[string]*tensor.Tensor, callers, iters int) float64 {
	states := make([]*rt.ExecState, callers)
	for i := range states {
		states[i] = mod.AcquireState()
	}
	for _, st := range states {
		mod.ReleaseState(st)
	}
	mod.Run(inputs)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				mod.Run(inputs)
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(callers*iters)
}

func (s *Suite) runServing() servingResult {
	requests := s.ServingRequests
	inputs := seededInputs(requests, "image", 1, 8, 32, 32)
	log := tunelog.New()
	buckets := []int{1, 2, 4, 8}
	art := servingResult{Model: "servenet-8x32", Requests: requests}

	// Offered load: a seeded Poisson stream whose arrival span covers
	// ~30% of the single-worker service time, so the one-worker
	// configuration is service-bound (throughput measures capacity)
	// while multi-worker latencies reflect queueing against real
	// arrival gaps instead of a flood at t=0. The bucket-8 compile here
	// also primes the shared tuning log.
	mod8, err := s.tenantCompiler(servingModel(), log)(s.Dev, 8)
	if err != nil {
		panic(err)
	}
	arrivals := PoissonArrivals(requests, 0.3*mod8.Time()/8, 7)

	configs := []struct {
		workers int
		buckets []int
	}{
		{1, buckets},
		{2, buckets},
		{4, buckets},
		{4, []int{1}}, // batching ablation: same streams, no coalescing
	}
	var base, four float64
	for _, c := range configs {
		st := flood(serve.ServerOptions{
			Devices:     s.devices(c.workers),
			BatchWindow: 5 * time.Millisecond,
			Trace:       s.Trace,
			TraceLabel:  fmt.Sprintf("serving %dw b%d", c.workers, c.buckets[len(c.buckets)-1]),
		}, []floodTenant{{"default", s.tenantCompiler(servingModel(), log), serve.DeployOptions{Buckets: c.buckets}}},
			stream("default", inputs, arrivals, serve.PriorityNormal)).Stats()
		row := servingRun{
			Workers:    c.workers,
			MaxBucket:  c.buckets[len(c.buckets)-1],
			Throughput: st.Throughput(),
			P50Us:      st.LatencyPercentile(50) * 1e6,
			P99Us:      st.LatencyPercentile(99) * 1e6,
			Batches:    st.BatchSizes,
		}
		art.Rows = append(art.Rows, row)
		if c.workers == 1 && len(c.buckets) == len(buckets) {
			base = row.Throughput
		}
		if c.workers == 4 && len(c.buckets) == len(buckets) {
			four = row.Throughput
		}
	}
	if base > 0 {
		art.WorkerScaling1To4 = four / base
	}

	// Steady-state allocation accounting on the batch-1 variant.
	mod, err := s.tenantCompiler(servingModel(), log)(s.Dev, 1)
	if err != nil {
		panic(err)
	}
	art.SingleCallerAllocsPerRun = measureRunAllocs(mod, inputs[0], 1, 16)
	art.ConcurrentCallersAllocsPerRun = measureRunAllocs(mod, inputs[0], 8, 8)
	return art
}

// Serving reproduces the serving-engine experiment: dynamic batching
// and worker scaling on the simulated device streams.
func (s *Suite) Serving() *Table {
	art := s.runServing()
	t := &Table{
		ID:      "serving",
		Title:   fmt.Sprintf("Serving engine: dynamic batching, %d single-sample requests (simulated device time)", art.Requests),
		Columns: []string{"workers", "buckets", "imgs/s", "p50 us", "p99 us", "batches run", "vs 1 worker"},
		Notes: []string{
			"requests arrive as a seeded Poisson process on the sim clock; latency = completion - arrival (steady-state queueing)",
			fmt.Sprintf("worker scaling 1->4: %.2fx (CI floor: 1.5x)", art.WorkerScaling1To4),
			fmt.Sprintf("steady-state allocs/run: %.0f single caller, %.0f with 8 concurrent callers",
				art.SingleCallerAllocsPerRun, art.ConcurrentCallersAllocsPerRun),
		},
	}
	var base float64
	for _, r := range art.Rows {
		if r.Workers == 1 && r.MaxBucket == 8 {
			base = r.Throughput
		}
	}
	for _, r := range art.Rows {
		speedup := "-"
		if base > 0 {
			speedup = f2(r.Throughput / base)
		}
		t.AddRow(fmt.Sprint(r.Workers), fmt.Sprintf("1..%d", r.MaxBucket), i0(r.Throughput),
			f1(r.P50Us), f1(r.P99Us), fmt.Sprint(r.Batches), speedup)
	}
	return t
}
