package bench

import (
	"fmt"
	"sort"
	"time"

	"bolt/internal/gpu"
	"bolt/internal/serve"
	"bolt/internal/tunelog"
)

// The padding experiment is the padded-dispatch ablation: the same
// seeded Poisson request stream (the hetero experiment's mixed 1x T4 +
// 1x A100 pool and widenet model) replayed under four batching
// policies — strict buckets with the fixed batch window, continuous
// marginal-gain formation, continuous formation plus padded-bucket
// dispatch, and the single-bucket guard (adaptive flags on a one-rung
// ladder, which must short-circuit to strict with zero padded batches).
// The strict baseline holds partial batches for the window while
// devices idle; continuous formation dispatches as soon as the modeled
// marginal gain of one more row goes negative, and padding lets those
// partial batches ride a larger compiled bucket when the cost model
// prices that earlier than a chain of exact buckets. Every number is
// computed on the simulated clocks, and batch composition is made
// deterministic by gating the variant compiles until the whole stream
// is queued.

// paddingPolicy is one batching policy under test.
type paddingPolicy struct {
	name       string
	buckets    []int
	pad        bool
	continuous bool
	requests   int // 0 = the full stream
}

// paddingRow is one policy's measured result.
type paddingRow struct {
	Policy        string
	Requests      int64
	Batches       int64
	PaddedBatches int64
	PaddedRows    int64
	BatchSizes    map[int]int64
	Throughput    float64
	MakespanUs    float64
	P50Us         float64
	P99Us         float64
}

// paddingResult is the experiment's measured result: the table and the
// tests read it.
type paddingResult struct {
	Model    string
	Pool     string
	Requests int
	Rows     []paddingRow
	// Modeled bucket costs bounding the padding trade: a bucket-8 run
	// costs little more than bucket 1 on this launch-bound ladder's
	// small end, which is exactly when padding partial batches pays.
	T4Batch1Us float64
	T4Batch8Us float64
	// The CI-enforced numbers: continuous+padded must not lose modeled
	// throughput against strict buckets, its p99 must stay within 1.1x,
	// it must actually pad, and the single-bucket guard must never pad.
	StrictThroughput   float64
	PaddedThroughput   float64
	ThroughputGain     float64
	StrictP99Us        float64
	PaddedP99Us        float64
	P99Ratio           float64
	PaddedBatches      int64
	GuardPaddedBatches int64
}

func (s *Suite) runPadding() paddingResult {
	requests := s.PaddingRequests
	requests -= requests % 8 // strict baseline: full largest buckets only
	if requests < 16 {
		requests = 16
	}
	log := tunelog.New()
	t4, a100 := gpu.T4(), gpu.A100()
	compile := s.tenantCompiler(heteroModel(), log)

	// Price the ladder's ends on the T4 (priming the shared tuning log
	// along the way): the bucket-8/bucket-1 cost ratio is what makes
	// padding a partial batch to a full rung nearly free on this model.
	mod1T4, err := compile(t4, 1)
	if err != nil {
		panic(err)
	}
	mod8T4, err := compile(t4, 8)
	if err != nil {
		panic(err)
	}
	cost1T4, cost8T4 := mod1T4.Time(), mod8T4.Time()

	// Offered load at roughly a third of the mixed pool's bucket-8
	// service capacity: under-capacity on purpose, so the strict baseline's
	// batches routinely idle a device while they wait to fill and its
	// last full bucket cannot even start before the final arrival — the
	// gaps continuous formation and padding exist to close. (Near
	// saturation the comparison inverts: a backlogged queue hands strict
	// full buckets for free and padding only spends compute the pool no
	// longer has spare.) Arrivals use the seeded Poisson generator.
	arrivals := PoissonArrivals(requests, 1.25*cost8T4/8, 17)
	reqs := stream("widenet", seededInputs(requests, "image", 1, 16, 32, 32), arrivals, serve.PriorityBulk)

	guardN := 16
	if guardN > requests {
		guardN = requests
	}
	ladder := []int{1, 2, 4, 8}
	policies := []paddingPolicy{
		{name: "strict buckets", buckets: ladder},
		{name: "continuous", buckets: ladder, continuous: true},
		{name: "continuous+padded", buckets: ladder, pad: true, continuous: true},
		{name: "single-bucket guard", buckets: []int{1}, pad: true, continuous: true, requests: guardN},
	}

	art := paddingResult{
		Model:      "widenet-16x32",
		Pool:       "1x T4 + 1x A100",
		Requests:   requests,
		T4Batch1Us: cost1T4 * 1e6,
		T4Batch8Us: cost8T4 * 1e6,
	}
	devices := []*gpu.Device{t4, a100}
	for _, pol := range policies {
		polReqs := reqs
		if pol.requests > 0 && pol.requests < len(reqs) {
			polReqs = reqs[:pol.requests]
		}
		st := flood(serve.ServerOptions{
			Devices:     devices,
			BatchWindow: 10 * time.Millisecond,
			CompileJobs: 2,
			Trace:       s.Trace,
			TraceLabel:  "padding " + pol.name,
		}, []floodTenant{{"widenet", compile, serve.DeployOptions{
			Buckets:            pol.buckets,
			AllowPadding:       pol.pad,
			ContinuousBatching: pol.continuous,
		}}}, polReqs).Stats()
		row := paddingRow{
			Policy:        pol.name,
			Requests:      st.Requests,
			Batches:       st.Batches,
			PaddedBatches: st.PaddedBatches,
			PaddedRows:    st.PaddedRows,
			BatchSizes:    st.BatchSizes,
			Throughput:    st.Throughput(),
			MakespanUs:    st.SimMakespan * 1e6,
			P50Us:         st.LatencyPercentile(50) * 1e6,
			P99Us:         st.LatencyPercentile(99) * 1e6,
		}
		art.Rows = append(art.Rows, row)
		switch pol.name {
		case "strict buckets":
			art.StrictThroughput = row.Throughput
			art.StrictP99Us = row.P99Us
		case "continuous+padded":
			art.PaddedThroughput = row.Throughput
			art.PaddedP99Us = row.P99Us
			art.PaddedBatches = row.PaddedBatches
		case "single-bucket guard":
			art.GuardPaddedBatches = row.PaddedBatches
		}
	}
	if art.StrictThroughput > 0 {
		art.ThroughputGain = art.PaddedThroughput / art.StrictThroughput
	}
	if art.StrictP99Us > 0 {
		art.P99Ratio = art.PaddedP99Us / art.StrictP99Us
	}
	return art
}

// Padding reproduces the padded-dispatch / continuous-batching
// ablation: one seeded Poisson stream replayed under strict buckets,
// continuous formation, continuous+padded dispatch, and the
// single-bucket guard.
func (s *Suite) Padding() *Table {
	art := s.runPadding()
	t := &Table{
		ID:      "padding",
		Title:   fmt.Sprintf("Padded-bucket dispatch + continuous batching: %d Poisson requests on %s (simulated device time)", art.Requests, art.Pool),
		Columns: []string{"policy", "imgs/s", "makespan us", "p50 us", "p99 us", "batches", "padded (rows)", "batch sizes"},
		Notes: []string{
			"identical seeded Poisson arrivals replayed under each policy; compiles are gated until the whole stream is queued, so batch composition is deterministic",
			fmt.Sprintf("modeled T4 batch cost: bucket 1 %.1f us vs bucket 8 %.1f us — padding a partial batch onto a big rung is nearly free at the ladder's launch-bound end",
				art.T4Batch1Us, art.T4Batch8Us),
			fmt.Sprintf("continuous+padded vs strict: %.2fx throughput, p99 %.2fx (CI enforces gain >= 1 and p99 <= 1.1x)",
				art.ThroughputGain, art.P99Ratio),
			fmt.Sprintf("single-bucket guard padded %d batches (CI enforces 0: adaptive flags on a one-rung ladder must short-circuit)", art.GuardPaddedBatches),
		},
	}
	for _, r := range art.Rows {
		sizes := make([]int, 0, len(r.BatchSizes))
		for k := range r.BatchSizes {
			sizes = append(sizes, k)
		}
		sort.Ints(sizes)
		hist := ""
		for i, k := range sizes {
			if i > 0 {
				hist += ", "
			}
			hist += fmt.Sprintf("%dx%d", k, r.BatchSizes[k])
		}
		t.AddRow(r.Policy, i0(r.Throughput), f1(r.MakespanUs), f1(r.P50Us), f1(r.P99Us),
			fmt.Sprintf("%d", r.Batches), fmt.Sprintf("%d (%d)", r.PaddedBatches, r.PaddedRows), hist)
	}
	return t
}
