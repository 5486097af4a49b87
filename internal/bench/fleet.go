package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"bolt/internal/fleet"
	"bolt/internal/gpu"
	"bolt/internal/obs"
	"bolt/internal/rt"
	"bolt/internal/serve"
	"bolt/internal/tensor"
	"bolt/internal/tunelog"
)

// The fleet experiment exercises the PR-9 replicated-serving layer:
// N server replicas behind the EFT-backlog router, sharing one tuning
// log. One seeded Poisson stream is replayed against a healthy
// three-replica fleet and against the same fleet with a scripted worker
// failure (a kill answered by retry, a long stall answered by a
// hedged duplicate); the failure arms must lose zero requests and
// keep the caller-observed p99 within fleetP99Budget of the healthy
// baseline. Two more stages prove the operational story: a replica
// grown mid-run must compile every tenant variant with zero profiler
// measurements (warming purely from its peers' shared tuning-log
// entries), and the autoscaler must record at least one grow and one
// shrink on a bursty (MMPP) trace.

// fleetP99Budget is the CI-enforced ceiling on each failure arm's
// caller-observed p99 relative to the healthy baseline.
const fleetP99Budget = 1.5

// fleetCompiler is the serving CNN's variant compiler with an
// optional profiler-measurement counter, so the warm scale-up stage
// can prove a replica added mid-run compiled measurement-free.
func (s *Suite) fleetCompiler(log *tunelog.Log, measured *atomic.Int64) serve.CompileFunc {
	inner := s.tenantCompiler(servingModel(), log)
	return func(dev *gpu.Device, batch int) (*rt.Module, error) {
		m, err := inner(dev, batch)
		if err == nil && measured != nil {
			measured.Add(int64(m.Tuning.Measurements))
		}
		return m, err
	}
}

// fleetFloodChunk is the number of requests floodFleet keeps in
// flight at once (four full buckets).
const fleetFloodChunk = 32

// floodFleet replays the prepared stream against a fleet and returns
// the delivered simulated latencies (successes only) and the number
// of results delivered with an error.
//
// The stream is enqueued in bucket-aligned chunks with a drain
// barrier between them. The barrier bounds how far the simulated
// clocks can run ahead of the host timeline: retries and hedges are
// issued in host time, so if the whole stream were enqueued at once,
// the healthy replicas would have already committed every future
// batch by the time a rescue lands, pinning the rescued rows' start
// time at end-of-stream and making the failure arms' p99 grow with
// the stream length instead of with the fault's actual cost.
func floodFleet(f *fleet.Fleet, inputs []map[string]*tensor.Tensor, arrivals []float64) (lats []float64, errs int64) {
	for base := 0; base < len(inputs); base += fleetFloodChunk {
		hi := base + fleetFloodChunk
		if hi > len(inputs) {
			hi = len(inputs)
		}
		chans := make([]<-chan fleet.Result, 0, hi-base)
		for i := base; i < hi; i++ {
			ch, err := f.InferAsync("fleetnet", inputs[i], serve.InferOptions{
				Priority: serve.PriorityBulk,
				// Cap the bulk hold so wall-clock hedge timers race real
				// service, not the batcher's willingness to wait.
				MaxWait:    2 * time.Millisecond,
				SimArrival: arrivals[i],
			})
			if err != nil {
				panic(err)
			}
			chans = append(chans, ch)
		}
		for _, ch := range chans {
			res := <-ch
			if res.Err != nil {
				errs++
				continue
			}
			lats = append(lats, res.SimLatency)
		}
	}
	return lats, errs
}

// fleetArmRow is one (fleet configuration, fault script) replay.
type fleetArmRow struct {
	Arm             string
	Replicas        int
	Requests        int64
	Delivered       int64
	DeliveredErrors int64
	FailedBatches   int64
	Retries         int64
	HedgesIssued    int64
	HedgesWon       int64
	HedgesCanceled  int64
	P50Us           float64
	P99Us           float64
	// P99VsHealthy is this arm's p99 over the healthy baseline's (CI
	// enforces <= fleetP99Budget for the failure arms).
	P99VsHealthy float64
}

// fleetResult is the experiment's measured result: the table and the
// tests read it.
type fleetResult struct {
	Model     string
	Requests  int
	P99Budget float64
	Rows      []fleetArmRow
	// Warm scale-up: profiler measurements spent compiling the initial
	// replicas' variants vs. the replica added by Grow mid-run (CI
	// enforces the latter == 0 — it warms from the shared tuning log).
	MeasurementsInitial      int64
	MeasurementsGrownReplica int64
	GrownReplicaRequests     int64
	// Autoscaling on the bursty trace: the MMPP stream's gap CV^2
	// (Poisson is ~1) and the recorded scale events (CI enforces >= 1
	// of each).
	BurstyGapCV2          float64
	AutoscaleGrowEvents   int64
	AutoscaleShrinkEvents int64
}

// runFleetArm replays one stream against a fresh three-replica fleet
// (four workers each) with the given hedge policy and fault script.
// When tr is set, the arm's route/hedge/retry spans and each replica's
// request-lifecycle spans are recorded into it.
func (s *Suite) runFleetArm(arm string, log *tunelog.Log, hedge fleet.HedgeOptions, inject func(*fleet.Fleet), inputs []map[string]*tensor.Tensor, arrivals []float64, tr *obs.Tracer) fleetArmRow {
	f := fleet.New(fleet.Options{
		Replicas:    [][]*gpu.Device{s.devices(4), s.devices(4), s.devices(4)},
		QueueDepth:  len(inputs),
		BatchWindow: 2 * time.Millisecond,
		CompileJobs: 2,
		Hedge:       hedge,
		Trace:       tr,
		TraceLabel:  "fleet " + arm,
	})
	if err := f.Deploy("fleetnet", s.fleetCompiler(log, nil), serve.DeployOptions{
		Buckets: []int{1, 2, 4, 8},
	}); err != nil {
		panic(err)
	}
	if err := f.Warm("fleetnet"); err != nil {
		panic(err)
	}
	if inject != nil {
		inject(f)
	}
	lats, errs := floodFleet(f, inputs, arrivals)
	f.Close()
	st := f.Stats()
	return fleetArmRow{
		Arm:             arm,
		Replicas:        len(st.Replicas),
		Requests:        st.Routed,
		Delivered:       st.Delivered,
		DeliveredErrors: errs,
		FailedBatches:   st.Serve.FailedBatches,
		Retries:         st.Retries,
		HedgesIssued:    st.HedgesIssued,
		HedgesWon:       st.HedgesWon,
		HedgesCanceled:  st.HedgesCanceled,
		// The caller-side sample holds delivered results only, so hedged
		// losers never skew the percentiles.
		P50Us: obs.NearestRank(lats, 50) * 1e6,
		P99Us: obs.NearestRank(lats, 99) * 1e6,
	}
}

// runFleetWarmGrow runs the warm scale-up stage: a fresh tuning log
// (so the initial compiles really measure), then Grow mid-run, whose
// replica must warm every tenant variant measurement-free.
func (s *Suite) runFleetWarmGrow(art *fleetResult, inputs []map[string]*tensor.Tensor, arrivals []float64) {
	warmLog := tunelog.New()
	var measured atomic.Int64
	f := fleet.New(fleet.Options{
		Replicas:    [][]*gpu.Device{s.devices(1), s.devices(1)},
		QueueDepth:  len(inputs),
		BatchWindow: 2 * time.Millisecond,
		CompileJobs: 2,
	})
	if err := f.Deploy("fleetnet", s.fleetCompiler(warmLog, &measured), serve.DeployOptions{
		Buckets: []int{1, 2, 4, 8},
	}); err != nil {
		panic(err)
	}
	if err := f.Warm("fleetnet"); err != nil {
		panic(err)
	}
	art.MeasurementsInitial = measured.Load()
	if _, err := f.Grow(); err != nil {
		panic(err)
	}
	art.MeasurementsGrownReplica = measured.Load() - art.MeasurementsInitial
	// Route some traffic so the grown replica demonstrably serves.
	if _, errs := floodFleet(f, inputs, arrivals); errs > 0 {
		panic(fmt.Sprintf("fleet warm-grow flood delivered %d errors", errs))
	}
	f.Close()
	st := f.Stats()
	for _, r := range st.Replicas {
		if r.Grown {
			art.GrownReplicaRequests += r.Serve.Requests
		}
	}
}

// runFleetAutoscale drives a one-replica fleet with a bursty MMPP
// stream and caller-paced autoscaler polls: the burst must grow the
// fleet, the following idle drain must shrink it back.
func (s *Suite) runFleetAutoscale(art *fleetResult, log *tunelog.Log, inputs []map[string]*tensor.Tensor, meanGap float64) {
	n := len(inputs)
	bursty := BurstyArrivals(n, BurstyOptions{
		BurstInterarrival: meanGap / 4,
		IdleInterarrival:  meanGap * 4,
		BurstDwell:        float64(n) / 2 * meanGap,
		IdleDwell:         float64(n) / 2 * meanGap,
	}, 31)
	prev := 0.0
	gaps := make([]float64, n)
	for i, a := range bursty {
		gaps[i] = a - prev
		prev = a
	}
	mean, varsum := 0.0, 0.0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(n)
	for _, g := range gaps {
		varsum += (g - mean) * (g - mean)
	}
	art.BurstyGapCV2 = varsum / float64(n) / (mean * mean)

	f := fleet.New(fleet.Options{
		Replicas:    [][]*gpu.Device{s.devices(2)},
		QueueDepth:  n,
		BatchWindow: 2 * time.Millisecond,
		CompileJobs: 2,
		Autoscale: fleet.AutoscaleOptions{
			// Any queued work sustained over two polls grows the fleet; a
			// fully drained queue sustained over two polls shrinks it.
			GrowBacklogSeconds:   1e-9,
			ShrinkBacklogSeconds: 1e-12,
			SustainPolls:         2,
			MinReplicas:          1,
			MaxReplicas:          2,
		},
	})
	if err := f.Deploy("fleetnet", s.fleetCompiler(log, nil), serve.DeployOptions{
		Buckets: []int{1, 2, 4, 8},
	}); err != nil {
		panic(err)
	}
	if err := f.Warm("fleetnet"); err != nil {
		panic(err)
	}
	// First half of the trace lands on the lone replica; two polls of
	// sustained backlog grow the fleet, the second half is then routed
	// across both replicas.
	half := n / 2
	chans := make([]<-chan fleet.Result, 0, n)
	enqueue := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ch, err := f.InferAsync("fleetnet", inputs[i], serve.InferOptions{
				Priority:   serve.PriorityBulk,
				MaxWait:    2 * time.Millisecond,
				SimArrival: bursty[i],
			})
			if err != nil {
				panic(err)
			}
			chans = append(chans, ch)
		}
	}
	enqueue(0, half)
	f.PollAutoscale()
	f.PollAutoscale()
	enqueue(half, n)
	for _, ch := range chans {
		if res := <-ch; res.Err != nil {
			panic(res.Err)
		}
	}
	// Idle: the drained queue sustained over two polls shrinks the
	// fleet back to MinReplicas.
	f.PollAutoscale()
	f.PollAutoscale()
	f.Close()
	st := f.Stats()
	art.AutoscaleGrowEvents = st.GrowEvents
	art.AutoscaleShrinkEvents = st.ShrinkEvents
}

func (s *Suite) runFleet() fleetResult {
	requests := s.FleetRequests
	requests -= requests % 8
	if requests < 16 {
		requests = 16
	}
	log := tunelog.New()
	// Price the full bucket (also primes the shared log, so every arm
	// below warms measurement-free) and derive the offered load: a
	// per-row gap of half the bucket-8 per-row service time keeps the
	// four-worker fleet around 50% utilized — busy enough for real
	// queueing, slack enough that a failure arm's rescued requests have
	// somewhere to go.
	mod8, err := s.fleetCompiler(log, nil)(s.Dev, 8)
	if err != nil {
		panic(err)
	}
	meanGap := 0.5 * mod8.Time() / 8
	arrivals := PoissonArrivals(requests, meanGap, 23)
	inputs := make([]map[string]*tensor.Tensor, requests)
	for i := range inputs {
		in := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNCHW, 1, 8, 32, 32)
		in.FillRandom(int64(i+1), 1)
		inputs[i] = map[string]*tensor.Tensor{"image": in}
	}

	art := fleetResult{
		Model:     "servenet-8x32",
		Requests:  requests,
		P99Budget: fleetP99Budget,
	}

	healthy := s.runFleetArm("healthy", log, fleet.HedgeOptions{}, nil, inputs, arrivals, s.Trace)
	kill := s.runFleetArm("worker kill (retried)", log, fleet.HedgeOptions{}, func(f *fleet.Fleet) {
		// The first batch dispatched on replica 0's worker 0 fails; the
		// router retries its requests on the healthy replicas at normal
		// priority (so the rescues still coalesce into buckets).
		f.InjectFault(0, 0, 1, serve.BatchFault{Err: fleet.ErrInjectedKill})
	}, inputs, arrivals, nil)
	stall := s.runFleetArm("worker stall (hedged)", log, fleet.HedgeOptions{Timeout: 40 * time.Millisecond}, func(f *fleet.Fleet) {
		// The first batch on replica 0's worker 0 stalls far past the
		// hedge timeout; its requests are duplicated on the healthy
		// replicas and the duplicates win while the stalled loser
		// drains. The host delay must dwarf the hedge timeout plus the
		// hedged attempt's own host latency — the deliver race runs on
		// the host clock, so too small a gap lets the stalled primary
		// win under race-detector slowdown and its 0.05s simulated
		// penalty lands on the latency tail.
		f.InjectFault(0, 0, 1, serve.BatchFault{
			StallSimSeconds: 0.05,
			StallHostDelay:  2 * time.Second,
		})
	}, inputs, arrivals, s.StallTrace)
	for _, r := range []*fleetArmRow{&healthy, &kill, &stall} {
		if healthy.P99Us > 0 {
			r.P99VsHealthy = r.P99Us / healthy.P99Us
		}
	}
	art.Rows = []fleetArmRow{healthy, kill, stall}

	// Stage 2: warm scale-up (its own fresh tuning log, and a short
	// stream so the grown replica demonstrably serves).
	short := requests / 2
	if short < 16 {
		short = 16
	}
	s.runFleetWarmGrow(&art, inputs[:short], arrivals[:short])

	// Stage 3: autoscaling on the bursty trace (shared primed log).
	s.runFleetAutoscale(&art, log, inputs, meanGap)
	return art
}

// Fleet reproduces the replicated-serving experiment: one seeded
// request stream replayed against a healthy fleet and against
// scripted worker failures (kill answered by retry, stall answered by
// a hedged duplicate), plus the warm scale-up and bursty-autoscaling
// stages.
func (s *Suite) Fleet() *Table {
	art := s.runFleet()
	t := &Table{
		ID:      "fleet",
		Title:   fmt.Sprintf("Fleet serving: %d Poisson requests, 3 replicas x 4 workers, scripted worker failures (simulated device time)", art.Requests),
		Columns: []string{"arm", "delivered/routed", "errs", "retries", "hedges i/w/c", "p50 us", "p99 us", "vs healthy"},
		Notes: []string{
			"identical seeded arrivals per arm; failure arms script one fault on replica 0 worker 0 (kill -> retry, 2s stall -> hedge); rescued bulk attempts are escalated to normal priority",
			fmt.Sprintf("CI enforces: zero lost requests and failure-arm p99 <= %.1fx healthy", art.P99Budget),
			fmt.Sprintf("warm scale-up: initial replicas spent %d profiler measurements; the replica grown mid-run spent %d (CI enforces 0) and then served %d requests",
				art.MeasurementsInitial, art.MeasurementsGrownReplica, art.GrownReplicaRequests),
			fmt.Sprintf("autoscaler on the bursty trace (gap CV^2 %.1f): %d grow, %d shrink events (CI enforces >= 1 each)",
				art.BurstyGapCV2, art.AutoscaleGrowEvents, art.AutoscaleShrinkEvents),
		},
	}
	for _, r := range art.Rows {
		t.AddRow(r.Arm,
			fmt.Sprintf("%d/%d", r.Delivered, r.Requests),
			fmt.Sprint(r.DeliveredErrors),
			fmt.Sprint(r.Retries),
			fmt.Sprintf("%d/%d/%d", r.HedgesIssued, r.HedgesWon, r.HedgesCanceled),
			f1(r.P50Us), f1(r.P99Us), f2(r.P99VsHealthy))
	}
	return t
}
