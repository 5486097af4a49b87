package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bolt"
	"bolt/internal/tensor"
)

// tenant is one model a serving workload deploys, with its prepared
// single-sample inputs and the oracle for their outputs.
type tenant struct {
	name   string
	build  func() *bolt.Graph
	deploy bolt.DeployOptions
	input  string
	inputs []*bolt.Tensor
	oracle *oracle
}

// serveWorkload is one of the four serving workloads: a single client
// keeps window requests outstanding against a bolt.Server or a
// bolt.Fleet (closed loop on the host clock) while every request is
// stamped with a seeded Poisson SimArrival (open loop on the modeled
// clock).
type serveWorkload struct {
	cfg      config
	name     string
	dir      string
	requests int
	// meanGap is the mean modeled seconds between arrivals, fixed at
	// about 0.8 of the endpoint's modeled capacity when the benchmark
	// was written. It is absolute on purpose: a change that makes the
	// modeled device faster lowers utilization, and latency with it.
	meanGap float64
	tenants []*tenant
	// devices is the server's heterogeneous pool; nil means two T4
	// workers.
	devices []*bolt.Device
	// obs hands the server a bolt.Tracer and exports it after the window.
	obs bool
	// fleet routes through a three-replica bolt.Fleet with scripted
	// kills and one Grow instead of a single server.
	fleet bool
	// mixed draws the tenant and the priority class per request.
	mixed bool

	// ep is the endpoint set-up deployed and warmed cold; every
	// repetition runs on it, its arrivals starting at the modeled time
	// the previous repetition ended.
	ep     *endpoint
	warmMs float64 // host time of that deploy and warm

	// Collected over traced repetitions for the per-layer metrics.
	plainRate            []float64
	queueUs, execUs      []float64
	classUs              map[bolt.Priority][]float64
	counts               serveCounts // of the latest traced repetition
	lastStats            bolt.ServeStats
	lastFleet            bolt.FleetStats
	statsUs, snapshotUs  []float64
	exportMs             []float64
	exportBytes          float64
	obsSpans, obsDropped float64
	growMs               []float64
	growMeasurements     float64
}

// killEvery is the request stride of fleet_faults' scripted worker
// kills.
const killEvery = 2500

// Mean modeled gaps between arrivals, in seconds: a share of the
// endpoint's flood throughput (requests / SimMakespan with every
// arrival at zero), measured once at the commit that added the
// benchmark. The share is the highest at which the modeled tail
// repeated between runs: which requests a forming batch sees depends on
// host interleaving, and near saturation that moved p99 by 6% on the
// single server and by 40% behind the fleet's host-time router.
const (
	gapServeSched  = 0.54e-6 // 0.6 of 3.10M req/sim_s, two T4 workers
	gapServeMixed  = 2.15e-6 // 0.8 of 0.58M req/sim_s, T4+A100
	gapFleetFaults = 1.25e-6 // 0.4 of 2.0M req/sim_s, three one-worker T4 replicas
)

func noopGraph() *bolt.Graph {
	b := bolt.NewBuilder()
	x := b.Input("x", bolt.FP16, 1, 16)
	return b.Build(b.Dense(x, b.Weight("w", 16, 16)))
}

// serveNet is the small CNN the repository's serving experiments use
// (servenet-8x32).
func serveNet() *bolt.Graph {
	b := bolt.NewBuilder()
	x := b.Input("image", bolt.FP16, 1, 8, 32, 32)
	c := b.Conv2D(x, b.Weight("w1", 16, 3, 3, 8), 1, 1)
	c = b.BiasAdd(c, b.Weight("b1", 16))
	c = b.Activation(c, bolt.ReLU)
	c = b.MaxPool(c, 2, 2, 0)
	c = b.Conv2D(c, b.Weight("w2", 32, 3, 3, 16), 2, 1)
	c = b.BiasAdd(c, b.Weight("b2", 32))
	c = b.Activation(c, bolt.ReLU)
	d := b.Dense(b.GlobalAvgPool(c), b.Weight("fc", 32, 10))
	return b.Build(b.Softmax(d))
}

// mlp256 is the repository's second serving tenant (mlp-256).
func mlp256() *bolt.Graph {
	b := bolt.NewBuilder()
	x := b.Input("x", bolt.FP16, 1, 256)
	h := b.Activation(b.Dense(x, b.Weight("w1", 256, 128)), bolt.ReLU)
	h = b.Activation(b.Dense(h, b.Weight("w2", 128, 64)), bolt.ReLU)
	return b.Build(b.Softmax(b.Dense(h, b.Weight("w3", 64, 10))))
}

var adaptive = bolt.DeployOptions{Buckets: []int{1, 2, 4, 8}, AllowPadding: true, ContinuousBatching: true}

func noopTenant() *tenant {
	return &tenant{name: "noop16", build: noopGraph, deploy: adaptive}
}

func setupServeSched(cfg config) (state, error) {
	return setupServe(&serveWorkload{cfg: cfg, name: "serve_sched", requests: cfg.count(250000),
		meanGap: gapServeSched, tenants: []*tenant{noopTenant()}})
}

func setupServeSchedTraced(cfg config) (state, error) {
	return setupServe(&serveWorkload{cfg: cfg, name: "serve_sched_traced", requests: cfg.count(120000),
		meanGap: gapServeSched, tenants: []*tenant{noopTenant()}, obs: true})
}

func setupServeMixed(cfg config) (state, error) {
	return setupServe(&serveWorkload{cfg: cfg, name: "serve_mixed", requests: cfg.count(1200),
		meanGap: gapServeMixed, mixed: true, devices: []*bolt.Device{bolt.T4(), bolt.A100()},
		tenants: []*tenant{
			{name: "servenet-8x32", build: serveNet, deploy: adaptive},
			{name: "mlp-256", build: mlp256, deploy: bolt.DeployOptions{Buckets: []int{1, 2, 4, 8}}},
		}})
}

func setupFleetFaults(cfg config) (state, error) {
	return setupServe(&serveWorkload{cfg: cfg, name: "fleet_faults", requests: cfg.count(125000),
		meanGap: gapFleetFaults, tenants: []*tenant{noopTenant()}, fleet: true})
}

// setupServe prepares inputs and reference outputs, then deploys and
// warms the endpoint with a cold tuning log.
func setupServe(w *serveWorkload) (state, error) {
	dir, err := os.MkdirTemp(w.cfg.outDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	w.dir = dir
	w.classUs = make(map[bolt.Priority][]float64)
	for i, t := range w.tenants {
		g := t.build()
		in := g.Inputs[0]
		t.input = in.Name
		k := 64
		if len(in.Shape) == 4 {
			k = 16 // convolution references cost more
		}
		t.inputs = randomInputs(k, w.cfg.seed+int64(i)*104729, in.Shape...)
		if t.oracle, err = newOracle(w.cfg, t.name, g, t.inputs); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	if w.ep, err = w.open(); err != nil {
		return nil, err
	}
	w.warmMs = time.Since(start).Seconds() * 1e3
	return w, nil
}

func (w *serveWorkload) close() {
	w.ep.close()
	os.RemoveAll(w.dir)
}

// serveCounts are the endpoint's counters the per-layer metrics report
// per repetition.
type serveCounts struct {
	requests, batches, paddedRows, evictions float64
	retries, hedgesIssued, hedgesWon         float64
}

func (e *endpoint) counts() serveCounts {
	var c serveCounts
	st := bolt.ServeStats{}
	if e.flt != nil {
		f := e.flt.Stats()
		st = f.Serve
		c.retries, c.hedgesIssued, c.hedgesWon = float64(f.Retries), float64(f.HedgesIssued), float64(f.HedgesWon)
	} else {
		st = e.srv.Stats()
	}
	c.requests, c.batches = float64(st.Requests), float64(st.Batches)
	c.paddedRows, c.evictions = float64(st.PaddedRows), float64(st.Evictions)
	return c
}

func (c serveCounts) minus(o serveCounts) serveCounts {
	return serveCounts{c.requests - o.requests, c.batches - o.batches, c.paddedRows - o.paddedRows, c.evictions - o.evictions,
		c.retries - o.retries, c.hedgesIssued - o.hedgesIssued, c.hedgesWon - o.hedgesWon}
}

// endpoint is the deployed system: a server or a fleet, exactly one of
// them set.
type endpoint struct {
	srv    *bolt.Server
	flt    *bolt.Fleet
	tracer *bolt.Tracer
}

// simMakespan is the modeled time at which the endpoint's last batch
// finished.
func (e *endpoint) simMakespan() float64 {
	if e.flt != nil {
		return e.flt.Stats().Serve.SimMakespan
	}
	return e.srv.Stats().SimMakespan
}

func (e *endpoint) close() error {
	if e.flt != nil {
		return e.flt.Close()
	}
	return e.srv.Close()
}

func (w *serveWorkload) cacheFile() string { return filepath.Join(w.dir, "tunelog.json") }

// open deploys and warms every tenant on a fresh endpoint.
func (w *serveWorkload) open() (*endpoint, error) {
	e := &endpoint{}
	if w.obs {
		e.tracer = bolt.NewTracer()
	}
	var deploy func(string, *bolt.Graph, bolt.DeployOptions) error
	var warm func(string, ...int) error
	var err error
	if w.fleet {
		e.flt, err = bolt.NewFleet(bolt.T4(), bolt.FleetOptions{
			Replicas:  []bolt.FleetReplica{{Workers: 1}, {Workers: 1}, {Workers: 1}},
			Jobs:      2,
			CacheFile: w.cacheFile(),
			Hedge:     bolt.HedgeOptions{Timeout: 50 * time.Millisecond},
			Trace:     e.tracer,
		})
		if err != nil {
			return nil, err
		}
		deploy, warm = e.flt.Deploy, e.flt.Warm
	} else {
		opts := bolt.ServerOptions{Workers: 2, Jobs: 2, CacheFile: w.cacheFile(), Trace: e.tracer}
		if w.devices != nil {
			opts.Workers, opts.Devices = 0, w.devices
		}
		if e.srv, err = bolt.NewServer(bolt.T4(), opts); err != nil {
			return nil, err
		}
		deploy, warm = e.srv.Deploy, e.srv.Warm
	}
	for _, t := range w.tenants {
		if err := deploy(t.name, t.build(), t.deploy); err != nil {
			e.close()
			return nil, err
		}
		if err := warm(t.name); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// rep sends the repetition's requests through the endpoint.
func (w *serveWorkload) rep(r int, rec *recorder) (repResult, error) {
	res, err := w.flood(r, rec, w.meanGap, w.requests)
	if err == nil && rec == nil {
		w.plainRate = append(w.plainRate, float64(res.ops)/res.seconds)
	}
	return res, err
}

func (w *serveWorkload) flood(r int, rec *recorder, gap float64, n int) (repResult, error) {
	res := repResult{ops: n, opMs: make([]float64, 0, n), simOpUs: make([]float64, 0, n)}
	e := w.ep
	seed := w.cfg.seed + int64(r)
	base := e.simMakespan()
	arrivals := poissonArrivals(n, gap, seed)
	for i := range arrivals {
		arrivals[i] += base
	}
	var err error
	classes := priorityPattern(seed)
	measuredBefore := 0
	var before serveCounts
	if rec != nil {
		before = e.counts()
	}
	if w.fleet && rec != nil {
		if measuredBefore, err = loggedMeasurements(w.cacheFile()); err != nil {
			return res, err
		}
	}

	// choose maps request i to its tenant, prepared input and class.
	choose := func(i int) (*tenant, int, bolt.Priority) {
		if !w.mixed {
			return w.tenants[0], inputIndex(i, len(w.tenants[0].inputs)), bolt.PriorityNormal
		}
		// A multiplicative hash of (i, seed) draws the tenant, so the
		// stream is a function of the seed and not a strict alternation.
		h := uint64(i+1)*0x9E3779B97F4A7C15 + uint64(seed)
		t := w.tenants[(h>>33)%uint64(len(w.tenants))]
		return t, inputIndex(i, len(t.inputs)), classes[i%len(classes)]
	}
	stride := checkEvery
	if w.cfg.golden.record {
		stride = 1 // record a digest for every prepared input
	}
	roots := make([]int, window)
	note := func(i int, sr bolt.ServeResult, submitted, completed time.Time) {
		if rec != nil {
			rec.end(roots[i%window])
		}
		t, idx, class := choose(i)
		if sr.Err != nil || (i%stride == 0 && !t.oracle.ok(idx, sr.Output)) {
			res.failed++
			return
		}
		res.opMs = append(res.opMs, completed.Sub(submitted).Seconds()*1e3)
		res.simOpUs = append(res.simOpUs, sr.SimLatency*1e6)
		if rec != nil {
			w.queueUs = append(w.queueUs, sr.QueueWait*1e6)
			w.execUs = append(w.execUs, sr.ExecuteSeconds*1e6)
			w.classUs[class] = append(w.classUs[class], sr.SimLatency*1e6)
		}
	}
	options := func(i int) (*tenant, map[string]*bolt.Tensor, bolt.InferOptions) {
		t, idx, class := choose(i)
		if rec != nil {
			roots[i%window] = rec.begin("op.request", -1, i)
		}
		return t, map[string]*bolt.Tensor{t.input: t.inputs[idx]}, bolt.InferOptions{Priority: class, SimArrival: arrivals[i]}
	}

	res.seconds, res.mallocs, err = measure(func() error {
		if w.fleet {
			submit := func(i int) (<-chan bolt.FleetResult, error) {
				if i == n/2 {
					s := rec.begin("Fleet.Grow", -1, i)
					start := time.Now()
					if _, err := e.flt.Grow(); err != nil {
						return nil, err
					}
					rec.end(s)
					if rec != nil {
						w.growMs = append(w.growMs, time.Since(start).Seconds()*1e3)
					}
				}
				t, in, opts := options(i)
				s := rec.begin("Fleet.InferAsync", roots[i%window], i)
				ch, err := e.flt.InferAsync(t.name, in, opts)
				rec.end(s)
				return ch, err
			}
			// The stream runs in segments of killEvery requests. Between
			// segments the window has drained, the kill is scripted on the
			// replica an idle fleet routes to, and the segment's first
			// request travels alone: it is the killed batch, a batch of one.
			// The fleet marks a replica unhealthy after three consecutive
			// failed rows and never probes it again while a healthy one
			// exists, so a killed batch of a full bucket would take its
			// replica out of rotation for good; a stream of those ends with
			// one replica carrying everything and a modeled tail that
			// measures how long that lasted, not the code.
			idle := 0
			for lo := 0; lo < n; lo += killEvery {
				first := lo
				segment := func(count int) error {
					base := first
					first += count
					return closedLoop(count, window, func(j int) (<-chan bolt.FleetResult, error) {
						return submit(base + j)
					}, func(j int, fr bolt.FleetResult, submitted, completed time.Time) {
						if j == 0 {
							idle = fr.Replica
						}
						note(base+j, fr.Result, submitted, completed)
					})
				}
				if lo > 0 {
					e.flt.InjectFault(idle, 0, 1, bolt.BatchFault{Err: bolt.ErrInjectedKill})
					if err := segment(1); err != nil {
						return err
					}
				}
				if err := segment(min(lo+killEvery, n) - first); err != nil {
					return err
				}
			}
			return nil
		}
		return closedLoop(n, window, func(i int) (<-chan bolt.ServeResult, error) {
			t, in, opts := options(i)
			s := rec.begin("Server.InferAsync", roots[i%window], i)
			ch, err := e.srv.InferAsync(t.name, in, opts)
			rec.end(s)
			return ch, err
		}, note)
	})
	if err != nil {
		return res, err
	}

	if w.fleet {
		// The grown replica retires again, so every repetition starts on
		// the three initial replicas. Shrink returns once it has drained.
		if _, err := e.flt.Shrink(); err != nil {
			return res, err
		}
		st := e.flt.Stats()
		res.simSeconds = st.Serve.SimMakespan - base
		if rec != nil {
			w.counts = e.counts().minus(before)
			w.lastFleet, w.lastStats = st, st.Serve
			after, err := loggedMeasurements(w.cacheFile())
			if err != nil {
				return res, err
			}
			w.growMeasurements = float64(after - measuredBefore)
		}
		return res, nil
	}
	start := time.Now()
	st := e.srv.Stats()
	statsUs := time.Since(start).Seconds() * 1e6
	res.simSeconds = st.SimMakespan - base
	if rec != nil {
		w.counts = e.counts().minus(before)
		w.lastStats = st
		w.statsUs = append(w.statsUs, statsUs)
		start = time.Now()
		snap := e.srv.Snapshot()
		w.snapshotUs = append(w.snapshotUs, time.Since(start).Seconds()*1e6)
		if snap == "" {
			return res, fmt.Errorf("%s: empty snapshot", w.name)
		}
	}
	// The export is the traced server's other output. The tracer keeps
	// a bounded ring of spans, so exporting once per run checks as much
	// as exporting after every repetition would: it happens after the
	// first timed repetition, and wherever its cost is reported.
	if e.tracer != nil && (r == 1 || rec != nil) {
		start = time.Now()
		out := e.tracer.ExportJSON()
		ms := time.Since(start).Seconds() * 1e3
		if !json.Valid(out) || e.tracer.Len() == 0 {
			res.failed++
		}
		if rec != nil {
			w.exportMs = append(w.exportMs, ms)
			w.exportBytes = float64(len(out))
			w.obsSpans = float64(e.tracer.Len())
			w.obsDropped = float64(e.tracer.Dropped())
		}
	}
	return res, nil
}

// inputIndex picks request i's prepared input out of k. The index
// advances by one more at every checked request, so the checks at
// stride checkEvery visit every input and not only input 0.
func inputIndex(i, k int) int { return (i + i/checkEvery) % k }

// loggedMeasurements sums the measured candidates recorded in a tuning
// log file: what the endpoint's compiles have profiled so far.
func loggedMeasurements(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var log struct {
		Entries []struct {
			Entry struct {
				Trials int `json:"trials"`
			} `json:"entry"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(raw, &log); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	total := 0
	for _, e := range log.Entries {
		total += e.Entry.Trials
	}
	return total, nil
}

func (w *serveWorkload) probes(layer map[string]float64, rec *recorder) error {
	us := func(ms []float64) []float64 {
		out := sortedCopy(ms)
		for i := range out {
			out[i] *= 1e3
		}
		return out
	}
	lat := sortedCopy(rec.durations("op.request"))
	layer["serve.host_lat_ms_p50"] = nearestRank(lat, 50)
	layer["serve.host_lat_ms_p99"] = tail(lat, 99)
	layer["serve.warm_host_ms"] = w.warmMs

	c := w.counts
	layer["serve.batches"] = c.batches
	layer["serve.mean_batch_rows"] = ratio(c.requests, c.batches)
	layer["serve.padded_rows_share"] = ratio(c.paddedRows, c.requests+c.paddedRows)
	layer["serve.evictions"] = c.evictions
	minShare := 1.0
	for _, d := range w.lastStats.Devices {
		minShare = min(minShare, d.UtilizationShare)
	}
	layer["serve.worker_util_min_share"] = minShare
	queue, exec := sortedCopy(w.queueUs), sortedCopy(w.execUs)
	layer["serve.sim_queue_wait_us_p50"] = nearestRank(queue, 50)
	layer["serve.sim_queue_wait_us_p99"] = tail(queue, 99)
	layer["serve.sim_execute_us_p50"] = nearestRank(exec, 50)

	// The cutlass share of one request: every anchor of every tenant's
	// bucket-1 variant, probed directly.
	var kp kernelProbe
	for _, t := range w.tenants {
		res, err := bolt.Compile(t.build(), bolt.T4(), bolt.Options{Jobs: 2})
		if err != nil {
			return err
		}
		if err := kp.measure(res.Module, bolt.T4()); err != nil {
			return err
		}
	}
	kp.report(layer)
	layer["cutlass.conv_share_of_run"] = ratio(kp.convMs, layer["serve.host_lat_ms_p50"])

	switch {
	case w.fleet:
		route := us(rec.durations("Fleet.InferAsync"))
		layer["fleet.route_host_us_p50"] = nearestRank(route, 50)
		layer["fleet.route_host_us_p99"] = tail(route, 99)
		layer["fleet.grow_host_ms"] = median(w.growMs)
		layer["fleet.grow_measurements"] = w.growMeasurements
		layer["fleet.retries"] = c.retries
		layer["fleet.hedges_issued"] = c.hedgesIssued
		layer["fleet.hedges_won"] = c.hedgesWon
		layer["fleet.hedge_waste_share"] = ratio(c.hedgesIssued-c.hedgesWon, c.hedgesIssued)
		lo, hi := 0.0, 0.0
		for _, rep := range w.lastFleet.Replicas {
			if n := float64(rep.Serve.Requests); !rep.Grown {
				if lo == 0 || n < lo {
					lo = n
				}
				hi = max(hi, n)
			}
		}
		layer["fleet.replica_imbalance_x"] = ratio(hi, lo)
		// The same tenant and request count through one two-worker server:
		// what routing, retry and hedge supervision cost per request.
		rate, err := w.siblingRate()
		if err != nil {
			return err
		}
		layer["fleet.server_over_fleet_x"] = ratio(rate, median(w.plainRate))
	default:
		enq := us(rec.durations("Server.InferAsync"))
		layer["serve.enqueue_host_us_p50"] = nearestRank(enq, 50)
		layer["serve.enqueue_host_us_p99"] = tail(enq, 99)
		layer["serve.stats_host_us"] = median(w.statsUs)
		layer["serve.snapshot_host_us"] = median(w.snapshotUs)
	}
	if w.obs {
		layer["obs.spans"] = w.obsSpans
		layer["obs.dropped_share"] = ratio(w.obsDropped, w.obsSpans+w.obsDropped)
		layer["obs.export_host_ms"] = median(w.exportMs)
		layer["obs.export_bytes"] = w.exportBytes
		rate, err := w.siblingRate()
		if err != nil {
			return err
		}
		layer["obs.overhead_x"] = ratio(rate, median(w.plainRate))
	}
	if w.mixed {
		for class, name := range map[bolt.Priority]string{bolt.PriorityHigh: "high", bolt.PriorityNormal: "normal", bolt.PriorityBulk: "bulk"} {
			layer["serve.sim_"+name+"_lat_us_p99"] = tail(sortedCopy(w.classUs[class]), 99)
		}
		// Two more points of the latency-against-rate curve: 0.5 and 0.95
		// of modeled capacity, beside the committed 0.8.
		for _, step := range []struct {
			name string
			util float64
		}{{"r50", 0.5}, {"r95", 0.95}} {
			res, err := w.flood(0, nil, w.meanGap*0.8/step.util, w.requests)
			if err != nil {
				return err
			}
			layer["serve.sim_lat_us_p99_"+step.name] = tail(sortedCopy(res.simOpUs), 99)
		}
		t := w.tenants[0]
		eight := make([]*bolt.Tensor, 8)
		for i := range eight {
			eight[i] = t.inputs[i]
		}
		layer["tensor.stack_slice_host_us"] = 1e3 * medianMs(func() {
			b := tensor.StackBatch(eight)
			for i := range eight {
				tensor.SliceBatch(b, i)
			}
		})
		five := tensor.StackBatch(eight[:5])
		layer["tensor.pad_strip_host_us"] = 1e3 * medianMs(func() {
			tensor.StripBatch(tensor.PadBatch(five, 8), 5)
		})
	}
	return nil
}

// siblingRate measures this workload's tenant and request count on a
// plain two-worker server, no fleet and no tracer: the numerator of
// the overhead ratios.
func (w *serveWorkload) siblingRate() (float64, error) {
	sib := &serveWorkload{cfg: w.cfg, name: w.name + "-sibling", requests: w.requests, meanGap: w.meanGap,
		tenants: []*tenant{noopTenant()}}
	st, err := setupServe(sib)
	if err != nil {
		return 0, err
	}
	defer st.close()
	for r := 0; r <= minReps; r++ { // repetition 0 warms up
		if _, err := sib.rep(r, nil); err != nil {
			return 0, err
		}
	}
	return median(sib.plainRate[1:]), nil
}
