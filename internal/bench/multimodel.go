package bench

import (
	"fmt"
	"math"
	"time"

	"bolt/internal/cutlass"
	"bolt/internal/relay"
	"bolt/internal/serve"
	"bolt/internal/tensor"
	"bolt/internal/tunelog"
)

// The multimodel experiment exercises the PR-4 multi-tenant server:
// two models (the serving CNN and an MLP) deployed on one shared
// worker pool, driven by a mixed-priority seeded Poisson request
// stream on the simulated clock (so the latency tails reflect
// queueing under contention, not a flood at t=0). It
// validates the two scheduling promises deterministically on the
// simulated clocks — weighted round-robin keeps every tenant's
// throughput alive (no starvation), and high-priority requests, which
// preempt the batch window and drain first within each batch, see a
// p99 no worse than bulk requests.

// multiMLPModel builds the second tenant: a small MLP over 256
// features — a deliberately different architecture (pure GEMM chain)
// from the CNN tenant, so the shared tunelog cache holds disjoint
// workload families.
func multiMLPModel() *relay.Graph {
	b := relay.NewBuilder()
	x := b.Input("x", tensor.FP16, 1, 256)
	h := b.Dense(x, b.Weight("w1", 256, 128))
	h = b.Activation(h, cutlass.ActReLU)
	h = b.Dense(h, b.Weight("w2", 128, 64))
	h = b.Activation(h, cutlass.ActReLU)
	d := b.Dense(h, b.Weight("w3", 64, 10))
	return b.Build(b.Softmax(d))
}

// multiModelRow is one tenant's measured result.
type multiModelRow struct {
	Model    string
	Requests int64
	// Throughput is the tenant's requests over its own makespan (the
	// simulated clock when its last batch finished) — tenants starved
	// until the end of the schedule show a depressed value.
	Throughput float64
	MakespanUs float64
	HighP50Us  float64
	HighP99Us  float64
	BulkP50Us  float64
	BulkP99Us  float64
	Batches    map[int]int64
}

// multiModelResult is the experiment's measured result: the table and the
// tests read it.
type multiModelResult struct {
	Workers          int
	RequestsPerModel int
	Rows             []multiModelRow
	// ThroughputRatio is max/min per-tenant throughput under equal
	// offered load — the fairness number (1.0 = perfectly even;
	// starvation drives it up).
	ThroughputRatio float64
	// HighP99Us / BulkP99Us are the aggregate per-priority tails; the
	// test asserts high <= bulk.
	HighP99Us float64
	BulkP99Us float64
}

func (s *Suite) runMultiModel() multiModelResult {
	requests := s.MultiModelRequests
	// Keep the priority pattern's tail bulk-only: a multiple of 4, one
	// high per 4 requests.
	requests -= requests % 4
	if requests < 8 {
		requests = 8
	}
	const workers = 2
	log := tunelog.New()
	type tenantSpec struct {
		name    string
		compile serve.CompileFunc
		input   func(seed int64) map[string]*tensor.Tensor
	}
	tenants := []tenantSpec{
		{"servenet-8x32", s.tenantCompiler(servingModel(), log), func(seed int64) map[string]*tensor.Tensor {
			in := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNCHW, 1, 8, 32, 32)
			in.FillRandom(seed, 1)
			return map[string]*tensor.Tensor{"image": in}
		}},
		{"mlp-256", s.tenantCompiler(multiMLPModel(), log), func(seed int64) map[string]*tensor.Tensor {
			in := tensor.New(tensor.FP16, 1, 256)
			in.FillRandom(seed, 1)
			return map[string]*tensor.Tensor{"x": in}
		}},
	}

	srv := serve.NewServer(serve.ServerOptions{
		Devices:     s.devices(workers),
		QueueDepth:  len(tenants) * requests,
		BatchWindow: 5 * time.Millisecond,
		CompileJobs: 2,
		Trace:       s.Trace,
		TraceLabel:  "multimodel",
	})
	defer srv.Close()
	for _, tn := range tenants {
		if err := srv.Deploy(tn.name, tn.compile, serve.DeployOptions{Buckets: []int{1, 2, 4, 8}}); err != nil {
			panic(err)
		}
	}
	// Warm every variant up front so the stream measures scheduling,
	// not compilation interleaving.
	for _, tn := range tenants {
		if err := srv.Warm(tn.name); err != nil {
			panic(err)
		}
	}

	// Offered load: the tenants' requests interleave one-for-one on a
	// seeded Poisson arrival stream at ~4x one worker's CNN bucket-8
	// service rate (the pool stays backlogged, so WRR fairness is
	// exercised under contention), every fourth request
	// latency-sensitive, the rest bulk.
	mod8, err := s.tenantCompiler(servingModel(), log)(s.Dev, 8)
	if err != nil {
		panic(err)
	}
	arrivals := PoissonArrivals(len(tenants)*requests, 0.25*mod8.Time()/8, 11)
	var chans []<-chan serve.Result
	for i := 0; i < requests; i++ {
		pri := serve.PriorityBulk
		if i%4 == 0 {
			pri = serve.PriorityHigh
		}
		for k, tn := range tenants {
			ch, err := srv.InferAsync(tn.name, tn.input(int64(i+1)), serve.InferOptions{
				Priority:   pri,
				SimArrival: arrivals[i*len(tenants)+k],
			})
			if err != nil {
				panic(err)
			}
			chans = append(chans, ch)
		}
	}
	for _, ch := range chans {
		if res := <-ch; res.Err != nil {
			panic(res.Err)
		}
	}

	art := multiModelResult{Workers: workers, RequestsPerModel: requests}
	minT, maxT := math.Inf(1), 0.0
	for _, tn := range tenants {
		st, ok := srv.ModelStats(tn.name)
		if !ok {
			panic("model stats missing for " + tn.name)
		}
		row := multiModelRow{
			Model:      tn.name,
			Requests:   st.Requests,
			Throughput: st.Throughput(),
			MakespanUs: st.SimMakespan * 1e6,
			HighP50Us:  st.PriorityPercentile(serve.PriorityHigh, 50) * 1e6,
			HighP99Us:  st.PriorityPercentile(serve.PriorityHigh, 99) * 1e6,
			BulkP50Us:  st.PriorityPercentile(serve.PriorityBulk, 50) * 1e6,
			BulkP99Us:  st.PriorityPercentile(serve.PriorityBulk, 99) * 1e6,
			Batches:    st.BatchSizes,
		}
		art.Rows = append(art.Rows, row)
		if row.Throughput < minT {
			minT = row.Throughput
		}
		if row.Throughput > maxT {
			maxT = row.Throughput
		}
	}
	if minT > 0 {
		art.ThroughputRatio = maxT / minT
	}
	agg := srv.Stats()
	art.HighP99Us = agg.PriorityPercentile(serve.PriorityHigh, 99) * 1e6
	art.BulkP99Us = agg.PriorityPercentile(serve.PriorityBulk, 99) * 1e6
	return art
}

// MultiModel reproduces the multi-tenant serving experiment: two
// models of different architectures share one server under a
// mixed-priority flood; weighted round-robin keeps both alive and
// high-priority requests beat bulk on tail latency.
func (s *Suite) MultiModel() *Table {
	art := s.runMultiModel()
	t := &Table{
		ID:      "multimodel",
		Title:   fmt.Sprintf("Multi-tenant server: 2 models x %d requests each, mixed priorities, %d shared workers (simulated device time)", art.RequestsPerModel, art.Workers),
		Columns: []string{"model", "requests", "imgs/s", "high p50 us", "high p99 us", "bulk p50 us", "bulk p99 us", "batches run"},
		Notes: []string{
			"every 4th request is high priority (preempts the batch window), the rest are bulk (wait for full buckets)",
			"per-tenant throughput = requests / that tenant's last completion on the shared worker clocks",
			fmt.Sprintf("fairness: max/min tenant throughput = %.2fx under equal offered load — the gap tracks the architectures' per-batch cost asymmetry (the cheap MLP retires its share early), not starvation; the symmetric two-tenant race test pins the within-2x bound", art.ThroughputRatio),
			fmt.Sprintf("priority SLO: aggregate high p99 %.1f us <= bulk p99 %.1f us (CI-enforced)", art.HighP99Us, art.BulkP99Us),
		},
	}
	for _, r := range art.Rows {
		t.AddRow(r.Model, fmt.Sprint(r.Requests), i0(r.Throughput),
			f1(r.HighP50Us), f1(r.HighP99Us), f1(r.BulkP50Us), f1(r.BulkP99Us),
			fmt.Sprint(r.Batches))
	}
	return t
}
