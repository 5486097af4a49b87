package bench

import (
	"reflect"
	"testing"
	"time"

	"bolt/internal/gpu"
	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/serve"
	"bolt/internal/tensor"
	"bolt/internal/tunelog"
)

// floodOutcome is the part of a flood's Stats that must not depend on
// host timing. The raw latency windows are left out: their order
// follows completion, not the stream.
type floodOutcome struct {
	BatchSizes    map[int]int64
	SimMakespan   float64
	P50, P99      map[serve.Priority]float64
	PaddedBatches int64
	PaddedRows    int64
}

// TestFloodIndependentOfCompileTiming pins flood's contract: with the
// compiles gated shut until the whole stream is queued, how long each
// variant then takes to compile cannot change which rows coalesce.
// One small tenant is flooded twice, once as is and once with every
// compile sleeping first, under continuous formation with padding and
// a mixed-priority stream, and every modeled outcome must match.
func TestFloodIndependentOfCompileTiming(t *testing.T) {
	const requests = 64
	b := relay.NewBuilder()
	x := b.Input("x", tensor.FP16, 1, 16)
	g := b.Build(b.Dense(x, b.Weight("w", 16, 16)))
	s := quick()
	log := tunelog.New()
	compile := s.tenantCompiler(g, log)
	// Price the largest bucket once: this primes the shared log, so
	// neither flood measures. Rows arrive at twice bucket 8's per-row
	// cost, so the stream forms partial batches and some get padded.
	mod8, err := compile(s.Dev, 8)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := PoissonArrivals(requests, 2*mod8.Time()/8, 5)
	inputs := seededInputs(requests, "x", 1, 16)
	pris := []serve.Priority{serve.PriorityNormal, serve.PriorityHigh, serve.PriorityBulk}
	reqs := make([]floodReq, requests)
	for i := range reqs {
		reqs[i] = floodReq{"dense", inputs[i], serve.InferOptions{Priority: pris[i%3], SimArrival: arrivals[i]}}
	}

	run := func(c serve.CompileFunc) floodOutcome {
		st := flood(serve.ServerOptions{
			Devices:     s.devices(2),
			BatchWindow: 5 * time.Millisecond,
			CompileJobs: 2,
		}, []floodTenant{{"dense", c, serve.DeployOptions{
			Buckets:            []int{1, 2, 4, 8},
			AllowPadding:       true,
			ContinuousBatching: true,
		}}}, reqs).Stats()
		out := floodOutcome{
			BatchSizes:    st.BatchSizes,
			SimMakespan:   st.SimMakespan,
			P50:           map[serve.Priority]float64{},
			P99:           map[serve.Priority]float64{},
			PaddedBatches: st.PaddedBatches,
			PaddedRows:    st.PaddedRows,
		}
		for _, p := range pris {
			out.P50[p] = st.PriorityPercentile(p, 50)
			out.P99[p] = st.PriorityPercentile(p, 99)
		}
		if st.Requests != requests {
			t.Fatalf("flood served %d requests, want %d", st.Requests, requests)
		}
		return out
	}
	// The immediate arm's variants are built up front, so its compiles
	// return at once; the slow arm's compiles run for real after a
	// sleep.
	built := map[int]*rt.Module{}
	for _, batch := range []int{1, 2, 4, 8} {
		if built[batch], err = compile(s.Dev, batch); err != nil {
			t.Fatal(err)
		}
	}
	fast := run(func(dev *gpu.Device, batch int) (*rt.Module, error) { return built[batch], nil })
	slow := run(func(dev *gpu.Device, batch int) (*rt.Module, error) {
		time.Sleep(3 * time.Millisecond)
		return compile(dev, batch)
	})
	if !reflect.DeepEqual(fast, slow) {
		t.Errorf("compile timing changed the flood's outcome:\nimmediate: %+v\nslow:      %+v", fast, slow)
	}
	if fast.SimMakespan <= 0 || fast.PaddedBatches == 0 {
		t.Errorf("flood left the padded path unexercised: %+v", fast)
	}
}

// TestPlannerFloodGolden pins the dispatch planner's two boundary rules
// end to end, through flood and a real server, on a launch-bound ladder
// (a 16x16 Dense: bucket 8 costs under 1 % more than bucket 1 on the
// T4) over two T4 workers. One stream is replayed under continuous
// formation alone and under continuous formation with padding:
//
//   - Without padding, the exact-bucket chain's cost plateaus at every
//     bucket boundary: a third row turns the chain 2 into 2+1, which
//     adds exactly the bucket-1 launch the absorbed row saves. Formation
//     absorbs that zero-gain row and reaches full buckets; stopping at
//     zero gain would cut every backlog into batches of two.
//   - The stream opens with five rows at t=0 and three at t=c1 (c1 the
//     bucket-1 cost). Bucket 4 takes four of the five on one worker and
//     the fifth runs alone on the other, so when the three rows plan,
//     padding them onto bucket 4 finishes at c1+c4, exactly when their
//     strict chain (bucket 2 after the lone row, bucket 1 after the
//     four) does. A tie keeps the strict plan.
//
// A Poisson tail at a quarter of the pool's bucket-8 capacity follows,
// so both policies also form, and pad, partial batches under load.
func TestPlannerFloodGolden(t *testing.T) {
	b := relay.NewBuilder()
	x := b.Input("x", tensor.FP16, 1, 16)
	g := b.Build(b.Dense(x, b.Weight("w", 16, 16)))
	s := quick()
	compile := s.tenantCompiler(g, tunelog.New())
	cost := map[int]float64{}
	for _, batch := range []int{1, 8} {
		m, err := compile(s.Dev, batch)
		if err != nil {
			t.Fatal(err)
		}
		cost[batch] = m.Time()
	}
	arrivals := []float64{0, 0, 0, 0, 0, cost[1], cost[1], cost[1]}
	for _, a := range PoissonArrivals(56, cost[8]/4, 1) {
		arrivals = append(arrivals, 4*cost[8]+a)
	}
	reqs := stream("dense", seededInputs(len(arrivals), "x", 1, 16), arrivals, serve.PriorityNormal)

	type policyOutcome struct {
		Policy        string
		BatchSizes    map[int]int64
		PaddedBatches int64
		PaddedRows    int64
		SimMakespan   float64
		P50, P99      float64
	}
	var got []policyOutcome
	for _, pad := range []bool{false, true} {
		st := flood(serve.ServerOptions{Devices: s.devices(2), CompileJobs: 2},
			[]floodTenant{{"dense", compile, serve.DeployOptions{
				Buckets:            []int{1, 2, 4, 8},
				AllowPadding:       pad,
				ContinuousBatching: true,
			}}}, reqs).Stats()
		name := "continuous"
		if pad {
			name = "continuous+padded"
		}
		var rows int64
		for b, n := range st.BatchSizes {
			rows += int64(b) * n
		}
		if st.Requests != int64(len(reqs)) || rows != st.Requests+st.PaddedRows {
			t.Errorf("%s: served %d of %d requests in batches holding %d rows (%d padded)",
				name, st.Requests, len(reqs), rows, st.PaddedRows)
		}
		got = append(got, policyOutcome{name, st.BatchSizes, st.PaddedBatches, st.PaddedRows,
			st.SimMakespan, st.LatencyPercentile(50), st.LatencyPercentile(99)})
	}
	if got[0].BatchSizes[8] == 0 || got[1].PaddedBatches == 0 {
		t.Errorf("the stream left a rule unexercised: continuous ran no full bucket, or padding never padded: %+v", got)
	}
	checkGolden(t, "planner", got)
}
