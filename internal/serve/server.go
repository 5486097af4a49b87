// Package serve is Bolt's serving layer: a multi-tenant request
// scheduler plus a dynamic batcher that coalesces single-sample
// inference requests into batch-bucketed runs over lazily compiled
// batch variants of the deployed models.
//
// This is the deployment story of the paper's §1/§2.1 motivation:
// dynamic-shape workloads arrive continuously, every new batch size is
// a brand-new workload for the tuner, and Bolt's light-weight profiler
// (plus the persistent tuning log) is what makes compiling a variant
// on demand affordable. Serving is a multi-tenant infrastructure
// problem, so a Server owns one shared worker pool and schedules many
// models over it: per-model/per-priority FIFO queues, weighted
// round-robin across tenants, and priority-aware batching (a pending
// high-priority request preempts the batch window; bulk requests wait
// for full buckets). The server leans on the runtime split — modules
// are immutable programs, per-run state lives in pooled rt.ExecStates
// — so N workers execute one variant concurrently with zero
// steady-state allocation.
//
// Performance accounting follows the repo's convention: execution is
// functional (real numerics on the host) while time is priced on the
// simulated device. Each worker owns a simulated clock that advances
// by the variant's modeled batch latency, so throughput and latency
// statistics are deterministic and reflect what N device streams would
// deliver, not host scheduling noise.
package serve

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bolt/internal/gpu"
	"bolt/internal/obs"
	"bolt/internal/rt"
	"bolt/internal/tensor"
)

// ErrNotDeployed is returned by Infer/Warm/Undeploy for a model name
// the server does not (or no longer) serve(s).
var ErrNotDeployed = errors.New("serve: model not deployed")

// CompileFunc compiles the source model for one device class at a
// leading batch dimension (relay.Rebatch + the regular compilation
// pipeline; the bolt package wires this to the tuning pipeline with a
// shared tuning-log cache). The server passes the class's device, so
// each class executes variants tuned for its own silicon.
type CompileFunc func(dev *gpu.Device, batch int) (*rt.Module, error)

// ErrClosed is returned by Infer/Deploy/Warm after Close.
var ErrClosed = errors.New("serve: server closed")

// Result is one completed request.
type Result struct {
	// Output is the request's slice of the batch output (leading dim
	// 1), owned by the caller.
	Output *tensor.Tensor
	Err    error
	// Model names the deployed model that served the request.
	Model string
	// Priority is the request's scheduling class.
	Priority Priority
	// Batch is the bucket the request was coalesced into.
	Batch int
	// Worker is the executor (simulated device stream) that ran it.
	Worker int
	// Device names the worker's device — which silicon served this
	// request.
	Device string
	// SimArrival echoes the request's InferOptions.SimArrival.
	SimArrival float64
	// SimLatency is the request's simulated latency: the worker's clock
	// when the batch finished minus the request's simulated arrival.
	// Under the flood model (every request arrives at simulated time
	// zero) this is simply the completion time, matching the
	// pre-arrival-process semantics.
	SimLatency float64
	// QueueWait is the simulated time from the request's arrival to its
	// batch's execution start — batch-formation wait plus worker-queue
	// wait. Set on success only, like SimLatency.
	QueueWait float64
	// ExecuteSeconds is the simulated time the request's batch spent
	// executing (injected stalls included). The decomposition is exact:
	// QueueWait + ExecuteSeconds == SimLatency bit-for-bit, so callers
	// can attribute a request's time without parsing stats.
	ExecuteSeconds float64
}

// Sink receives one request's Result. The server calls Deliver exactly
// once per accepted request, from one of its own goroutines (a worker,
// the scheduler, or an Undeploy caller) and never while holding its
// locks, so Deliver must not block: it runs on the path that feeds
// every later batch.
type Sink interface {
	Deliver(Result)
}

// resultChan is the channel face of a Sink, what InferAsync returns. It
// is created with one slot of buffer, so Deliver never blocks; a
// channel converts to the interface without allocating.
type resultChan chan Result

func (c resultChan) Deliver(res Result) { c <- res }

// bulkWindowFactor is how many batch windows a bulk request holds out
// for a full bucket before it is dispatched underfull (when
// InferOptions.MaxWait does not say otherwise).
const bulkWindowFactor = 4

// ServerOptions configures the resources every deployed model shares:
// the worker pool, the request queue, and the variant-compile pool.
type ServerOptions struct {
	// Devices is the worker pool: one concurrent executor (simulated
	// device stream, shared by all models) per entry, each modeling that
	// device. Workers that model the same device form one device class
	// and share compiled variants (the tuning-log keys are
	// device-scoped, so different classes' entries coexist in one
	// cache). Dispatch is cost-aware earliest-finish-time across the
	// pool. It must hold at least one device and no nil entry.
	Devices []*gpu.Device
	// QueueDepth is the pending-request capacity across all models:
	// the scheduler stops absorbing arrivals once the queued backlog
	// reaches it, so producers fill the same-sized channel behind it
	// and Infer blocks (backpressure; total buffered requests are
	// bounded by ~2x QueueDepth). Values < 1 mean 1024.
	QueueDepth int
	// BatchWindow is the default batch window for models whose
	// DeployOptions leave it zero: how long the batcher holds an
	// underfull normal-priority batch hoping to fill the largest
	// bucket. Zero means dispatch greedily.
	BatchWindow time.Duration
	// CompileJobs bounds how many variant compiles (lazy or Warm) run
	// concurrently. Values < 1 mean 1.
	CompileJobs int
	// Fault, when set, is consulted before every dispatched batch
	// executes and may fail the batch or stall the worker (see
	// BatchFault). The fleet layer's failure injector plugs in here; a
	// nil hook costs nothing.
	Fault FaultHook
	// Trace, when set, records request-lifecycle spans (plan, compile,
	// dispatch, execute, per-request trees) into the tracer on the
	// simulated clock. Spans never touch the sim clocks or the
	// scheduler's decisions, so a traced run serves bit-identical
	// results and stats to an untraced one. Nil disables span
	// collection entirely; the per-stage latency accounting behind
	// Stats.Stages and Snapshot is always on (it rides the existing
	// stats lock).
	Trace *obs.Tracer
	// TraceLabel names this server's process in the exported trace
	// ("server" when empty). The fleet layer labels each replica here.
	TraceLabel string
}

func (o ServerOptions) normalized() ServerOptions {
	if o.QueueDepth < 1 {
		o.QueueDepth = 1024
	}
	if o.CompileJobs < 1 {
		o.CompileJobs = 1
	}
	return o
}

// DeployOptions configures one model's batching and its share of the
// server.
type DeployOptions struct {
	// Buckets are the allowed batch sizes (bucket 1 is implied and
	// added if absent; non-positive entries are dropped). Nil means
	// {1, 2, 4, 8}.
	Buckets []int
	// Weight is the model's weighted-round-robin share when several
	// models contend for workers. Values < 1 mean 1.
	Weight int
	// BatchWindow overrides ServerOptions.BatchWindow for this model.
	BatchWindow time.Duration
	// MaxVariantBytes bounds the modeled memory (parameters + planned
	// activation arena, per rt.Module.Memory) of this model's compiled
	// variants held per device class. When the budget is exceeded the
	// least-recently-used variants are evicted (Stats.Evictions counts
	// them) and recompile on next use — cheap, since their workloads
	// stay in the shared tuning log and their modeled batch costs stay
	// memoized for dispatch pricing. Zero means unbounded. The budget
	// is per device class because variants multiply by class on a
	// heterogeneous pool. Note that on a multi-class pool the first
	// dispatch of a bucket compiles it on every class to price it, so a
	// budget smaller than a class's working set churns through
	// compile-evict cycles (each cheap — the tuning log makes
	// recompiles measurement-free — but counted in Stats.Evictions).
	MaxVariantBytes int64
	// AllowPadding lets the scheduler run a partial batch on a larger
	// compiled bucket with zero-padded rows whenever the cost model says
	// the padded run completes earlier than draining the rows as a
	// strict chain of exact buckets (each leg priced by the same EFT
	// rule the dispatcher uses). Pad cost is the larger variant's full
	// modeled cost — padding buys schedule slots, not free work — and
	// padded outputs are stripped back to the real rows before they
	// reach callers. Equal-cost ties keep the strict plan, so enabling
	// padding never changes a workload the model prices as neutral.
	// Ignored for single-bucket models (nothing to pad into).
	AllowPadding bool
	// ContinuousBatching replaces the fixed batch-window formation rule
	// for this model: instead of waiting for a full largest bucket or a
	// wall-clock window, a forming batch absorbs queued arrivals (in
	// dispatch order, on their simulated arrival times) while the
	// modeled marginal gain of one more row is positive — one saved
	// launch of the small bucket against the extra wait the rows already
	// in the batch would pay — then dispatches. The policy is
	// work-conserving: with no further queued arrival to price, the
	// batch dispatches rather than idle a worker on the hope of unseen
	// traffic, so BatchWindow only matters as the MaxWait default for
	// requests that keep it. Expired deadlines, high-priority arrivals,
	// and Close still force a dispatch exactly as before. Ignored for
	// single-bucket models (every request already dispatches greedily).
	ContinuousBatching bool
}

// InferOptions classifies one request for the scheduler.
type InferOptions struct {
	// Priority is the request's scheduling class (default
	// PriorityNormal).
	Priority Priority
	// MaxWait bounds how long the batcher may hold this request hoping
	// for a fuller bucket. Zero means the priority's default: the
	// model's batch window for PriorityNormal, bulkWindowFactor batch
	// windows for PriorityBulk. PriorityHigh dispatches immediately
	// and ignores MaxWait — holding a latency-sensitive request would
	// defeat the class.
	MaxWait time.Duration
	// SimArrival is the request's arrival time on the simulated clock,
	// in seconds (negative values mean 0). A worker cannot start a
	// batch before its latest member arrived, and each request's
	// SimLatency is its completion minus its arrival, so a seeded
	// arrival process (e.g. Poisson) yields steady-state queueing
	// percentiles instead of flood-at-t=0 ones. The zero default keeps
	// the flood semantics.
	SimArrival float64
}

// request is one queued inference request.
type request struct {
	t          *tenant
	id         int64 // server-assigned, in InferAsync acceptance order
	inputs     map[string]*tensor.Tensor
	sink       Sink
	priority   Priority
	deadline   time.Time // when the batcher stops holding it
	simArrival float64   // arrival time on the simulated clock
}

// batchJob is one dispatched batch: requests of a single tenant, in
// priority-then-FIFO order, plus the scheduler's EFT placement.
type batchJob struct {
	t    *tenant
	reqs []*request
	// bucket is the compiled variant the batch runs on — len(reqs) for
	// a strict dispatch, larger when the planner chose a padded run
	// (the bucket−len(reqs) extra rows are zero padding).
	bucket  int
	worker  int     // chosen executor
	class   int     // its device class
	cost    float64 // modeled batch cost on that class (0 if unpriceable)
	priced  bool    // pricing succeeded and the cost was committed to sched
	arrival float64 // latest member's simulated arrival
}

// vkey identifies one compiled variant: a batch bucket on a device
// class.
type vkey struct {
	class  int
	bucket int
}

// variant is one lazily compiled batch-bucketed, device-targeted
// module.
type variant struct {
	once    sync.Once
	mod     *rt.Module
	time    float64 // modeled seconds per batch run
	bytes   int64   // modeled bytes (params + planned arena), for eviction
	lastUse int64   // LRU tick of the last execution/compile
	err     error
}

// tenantStats are one model's serving counters (guarded by Server.mu).
type tenantStats struct {
	requests      int64
	batches       int64
	evictions     int64
	failedBatches int64 // batches answered with an error (incl. injected faults)
	paddedBatches int64 // batches run on a bucket larger than their row count
	paddedRows    int64 // zero-padding rows across those batches
	batchSizes    map[int]int64
	simMakespan   float64
	priLat        [numPriorities]latWindow
	// stages accumulates the per-priority stage-latency decomposition
	// over the tenant's lifetime (unbounded sums, unlike the latency
	// windows above).
	stages [numPriorities]StageBreakdown
	// stageHist are the per-stage latency histograms behind
	// Server.Snapshot (aggregated over priorities); latHist are the
	// per-priority end-to-end histograms.
	stageHist [numStages]*obs.Histogram
	latHist   [numPriorities]*obs.Histogram
}

// newTenantStats returns a zeroed accumulator with its maps and
// histograms allocated.
func newTenantStats() tenantStats {
	ts := tenantStats{batchSizes: make(map[int]int64)}
	for i := range ts.stageHist {
		ts.stageHist[i] = obs.NewHistogram(obs.DefaultLatencyBuckets())
	}
	for i := range ts.latHist {
		ts.latHist[i] = obs.NewHistogram(obs.DefaultLatencyBuckets())
	}
	return ts
}

// observeStages records one successful request's exact stage
// decomposition (f+q+e already sums bit-exactly to lat; deliver is 0
// on the sim clock).
func (ts *tenantStats) observeStages(pri Priority, f, q, e, lat float64) {
	ts.stages[pri].Add(StageBreakdown{
		Count: 1, FormationWait: f, QueueWait: q, Execute: e, Latency: lat,
	})
	ts.stageHist[stageFormation].Observe(f)
	ts.stageHist[stageQueue].Observe(q)
	ts.stageHist[stageExecute].Observe(e)
	ts.stageHist[stageDeliver].Observe(0)
	ts.latHist[pri].Observe(lat)
}

// merge folds another model's counters into this accumulator (latency
// samples pass through the bounded windows, so merging stays O(window)).
func (ts *tenantStats) merge(o *tenantStats) {
	ts.requests += o.requests
	ts.batches += o.batches
	ts.evictions += o.evictions
	ts.failedBatches += o.failedBatches
	ts.paddedBatches += o.paddedBatches
	ts.paddedRows += o.paddedRows
	for k, v := range o.batchSizes {
		ts.batchSizes[k] += v
	}
	for pri := range o.priLat {
		for _, v := range o.priLat[pri].samples {
			ts.priLat[pri].add(v)
		}
	}
	for pri := range o.stages {
		ts.stages[pri].Add(o.stages[pri])
	}
	for i := range o.stageHist {
		ts.stageHist[i].Merge(o.stageHist[i])
	}
	for i := range o.latHist {
		ts.latHist[i].Merge(o.latHist[i])
	}
}

// snapshot copies the counters into an exported Stats (only priority
// classes with traffic appear in its maps). Variants, Devices and
// BacklogSeconds are not tenantStats' to know; callers fill them.
func (ts *tenantStats) snapshot() Stats {
	st := Stats{
		Requests:          ts.requests,
		Batches:           ts.batches,
		Evictions:         ts.evictions,
		FailedBatches:     ts.failedBatches,
		PaddedBatches:     ts.paddedBatches,
		PaddedRows:        ts.paddedRows,
		BatchSizes:        maps.Clone(ts.batchSizes),
		SimMakespan:       ts.simMakespan,
		PriorityLatencies: make(map[Priority][]float64),
		Stages:            make(map[Priority]StageBreakdown),
	}
	for _, pri := range priorityOrder {
		if w := ts.priLat[pri].snapshot(); w != nil {
			st.PriorityLatencies[pri] = w
		}
		if ts.stages[pri].Count > 0 {
			st.Stages[pri] = ts.stages[pri]
		}
	}
	return st
}

// tenant is one deployed model: its compiler, buckets, batching
// policy, per-priority queues, per-device variant cache, and counters.
type tenant struct {
	name            string
	order           int // deploy order (WRR tie-break, deterministic iteration)
	compile         CompileFunc
	buckets         []int // sorted ascending, 1 always present
	window          time.Duration
	weight          int
	maxVariantBytes int64 // per-class LRU budget (0 = unbounded)
	pad             bool  // DeployOptions.AllowPadding
	continuous      bool  // DeployOptions.ContinuousBatching
	// planRuns counts adaptive-planner invocations — the observable for
	// the single-bucket short-circuit: a model whose ladder has one rung
	// must never reach the planner, whatever its flags say.
	planRuns int64

	wrr     int // smooth weighted-round-robin current weight
	queues  [numPriorities][]*request
	pending int
	// accepted counts requests accepted by InferAsync and not yet taken
	// into a batch — a superset of pending that also covers requests
	// still in flight to the scheduler's queues, so the backlog probe
	// sees a request the moment InferAsync returns.
	accepted int
	removed  bool
	variants map[vkey]*variant
	// costs memoizes each (class, bucket)'s modeled batch cost past the
	// variant's lifetime, so EFT pricing of an evicted variant does not
	// recompile it — only the winning class's execution does.
	costs map[vkey]float64
	// minCost[b] is the cheapest class's memoized cost for bucket b up
	// to the largest configured one (+Inf until some class priced it),
	// kept in step with costs so routing's backlog probe and the planner
	// read one slot instead of one map entry per class. Larger buckets
	// (a Warm may name any) fall back to scanning costs.
	minCost []float64
	// pricing marks buckets whose first-use pricing compiles are in
	// flight on background goroutines; the scheduler skips the tenant's
	// batches for such a bucket instead of blocking dispatch on the
	// compile.
	pricing map[int]bool
	stats   tenantStats
}

// maxBucket returns the tenant's largest configured bucket.
func (t *tenant) maxBucket() int { return t.buckets[len(t.buckets)-1] }

// adaptive reports whether dispatch for this tenant goes through the
// padded/continuous planner. Single-bucket models short-circuit to the
// strict path no matter what the flags say: with one rung there is
// nothing to pad into and nothing for marginal-gain formation to weigh,
// so they must pay zero scheduling overhead.
func (t *tenant) adaptive() bool {
	return (t.pad || t.continuous) && len(t.buckets) > 1
}

// Server is a multi-tenant serving engine: several models share one
// worker pool (the simulated device streams) and one scheduler. Each
// model keeps per-priority FIFO queues; the scheduler dispatches
// batches via weighted round-robin across the models that are ready,
// so no tenant starves, and priorities shape batching within a tenant:
// a pending high-priority request preempts the batch window, bulk
// requests wait for full buckets.
type Server struct {
	opts ServerOptions

	incoming   chan *request
	kick       chan struct{} // nudges the scheduler (Close, Undeploy)
	done       chan struct{} // scheduler exited
	wg         sync.WaitGroup
	inflight   sync.WaitGroup
	compileSem chan struct{} // bounds concurrent variant compiles

	// pool is the worker topology (device classes) plus the scheduler's
	// modeled finish times; its sched slice is touched only by the
	// scheduler goroutine.
	pool *pool
	// Scheduler-goroutine scratch, reused across batches: nextJob's
	// ready tenants and dispatch's per-class costs and liveness.
	ready     []*tenant
	dispCosts []float64
	dispLive  []bool

	mu           sync.Mutex
	closed       bool
	flushing     bool // Close started: dispatch greedily, ignore windows
	nextOrder    int
	lruTick      int64              // variant use counter (LRU eviction order)
	pendingTotal int                // queued (absorbed, undispatched) requests across tenants
	tenants      map[string]*tenant // live models by name
	order        []*tenant          // live models in deploy order (scheduler scan + WRR ties)
	retired      tenantStats        // merged counters of undeployed models (traffic stays counted)
	workerCh     []chan batchJob
	// workers are the per-worker rows Stats reports, kept current by
	// runBatch: SimMakespan is the worker's simulated clock, and
	// BusySeconds and the batch counters accumulate. UtilizationShare
	// is filled only on the snapshot copies.
	workers []DeviceStats
	// schedModel mirrors the pool's scheduler-owned finish times under
	// s.mu, so the backlog probe can read the EFT model from any
	// goroutine without racing the scheduler.
	schedModel []float64
	// nextReq assigns request ids in InferAsync acceptance order
	// (guarded by s.mu), correlating a request's spans across the
	// scheduler, worker, and fleet layers.
	nextReq int64

	// Tracing (nil/empty when ServerOptions.Trace is unset). Each
	// emitting goroutine owns its shard: the scheduler, each worker,
	// and one mutex-shared shard for compile goroutines.
	tr        *obs.Tracer
	trProc    int
	trSched   *obs.Shard
	trCompile *obs.Shard
	trWork    []*obs.Shard
}

// NewServer starts a multi-tenant server: one scheduler plus one
// executor goroutine per Options.Devices entry. Models are added with
// Deploy; Close shuts the server down after draining in-flight work.
// An empty Devices or a nil entry panics: the bolt package validates
// the pool before it gets here.
func NewServer(opts ServerOptions) *Server {
	opts = opts.normalized()
	if len(opts.Devices) == 0 {
		panic("serve: ServerOptions.Devices is empty")
	}
	workers := len(opts.Devices)
	s := &Server{
		opts:       opts,
		pool:       newPool(opts.Devices),
		incoming:   make(chan *request, opts.QueueDepth),
		kick:       make(chan struct{}, 1),
		done:       make(chan struct{}),
		compileSem: make(chan struct{}, opts.CompileJobs),
		tenants:    make(map[string]*tenant),
		retired:    newTenantStats(),
		workerCh:   make([]chan batchJob, workers),
		workers:    make([]DeviceStats, workers),
		schedModel: make([]float64, workers),
	}
	for w, dev := range opts.Devices {
		s.workers[w] = DeviceStats{Worker: w, Device: dev.Name}
	}
	s.dispCosts = make([]float64, len(s.pool.classes))
	s.dispLive = make([]bool, len(s.pool.classes))
	if opts.Trace != nil {
		label := opts.TraceLabel
		if label == "" {
			label = "server"
		}
		s.tr = opts.Trace
		s.trProc = s.tr.RegisterProcess(label)
		s.trSched = s.tr.NewShard()
		s.trCompile = s.tr.NewShard()
		s.trWork = make([]*obs.Shard, workers)
		for i := range s.trWork {
			s.trWork[i] = s.tr.NewShard()
		}
	}
	for i := range s.workerCh {
		s.workerCh[i] = make(chan batchJob, 4)
		s.wg.Add(1)
		go s.worker(i)
	}
	go s.schedule()
	return s
}

// Deploy registers a model under a unique name. Its batch variants
// compile lazily on first use (or eagerly via Warm) through the
// server's shared compile pool, once per device class: the pool passes
// each class's device into compile, so a T4 worker and an A100 worker
// each execute a module tuned for their own silicon while sharing one
// tuning log (its keys are device-scoped).
func (s *Server) Deploy(name string, compile CompileFunc, opts DeployOptions) error {
	if compile == nil {
		return errors.New("serve: nil compile function")
	}
	weight := opts.Weight
	if weight < 1 {
		weight = 1
	}
	window := opts.BatchWindow
	if window <= 0 {
		window = s.opts.BatchWindow
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.tenants[name]; ok {
		return fmt.Errorf("serve: model %q already deployed", name)
	}
	buckets := normalizeBuckets(opts.Buckets)
	minCost := make([]float64, buckets[len(buckets)-1]+1)
	for b := range minCost {
		minCost[b] = math.Inf(1)
	}
	t := &tenant{
		name:            name,
		order:           s.nextOrder,
		compile:         compile,
		buckets:         buckets,
		minCost:         minCost,
		window:          window,
		weight:          weight,
		maxVariantBytes: opts.MaxVariantBytes,
		pad:             opts.AllowPadding,
		continuous:      opts.ContinuousBatching,
		variants:        make(map[vkey]*variant),
		costs:           make(map[vkey]float64),
		stats:           newTenantStats(),
	}
	s.nextOrder++
	s.tenants[name] = t
	s.order = append(s.order, t)
	return nil
}

// Undeploy removes a model: new requests for it fail with
// ErrNotDeployed and its queued (not yet dispatched) requests are
// answered with the same error. Batches already handed to workers
// complete normally. The model's counters are folded into the
// aggregate Stats, but the tenant itself — its compiled variants,
// source-graph closure, and scheduler bookkeeping — is released, so a
// server cycling Deploy/Undeploy over many models does not accumulate
// dead state.
func (s *Server) Undeploy(name string) error {
	s.mu.Lock()
	t, ok := s.tenants[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("serve: model %q: %w", name, ErrNotDeployed)
	}
	delete(s.tenants, name)
	t.removed = true
	s.retired.merge(&t.stats)
	for i, lt := range s.order {
		if lt == t {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	var orphans []*request
	for pri := range t.queues {
		orphans = append(orphans, t.queues[pri]...)
		t.queues[pri] = nil
	}
	s.pendingTotal -= t.pending
	t.pending = 0
	s.mu.Unlock()
	for _, r := range orphans {
		s.respond(r, Result{
			Err:      fmt.Errorf("serve: model %q undeployed: %w", name, ErrNotDeployed),
			Model:    name,
			Priority: r.priority,
		})
	}
	// The scheduler may be sleeping on a deadline that just vanished.
	s.nudge()
	return nil
}

// Models lists the currently deployed model names, sorted.
func (s *Server) Models() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Infer runs one single-sample request (every input's leading dim must
// be 1) against a deployed model and blocks until its batch completes.
func (s *Server) Infer(model string, inputs map[string]*tensor.Tensor, opts InferOptions) (*tensor.Tensor, error) {
	ch, err := s.InferAsync(model, inputs, opts)
	if err != nil {
		return nil, err
	}
	res := <-ch
	return res.Output, res.Err
}

// InferAsync enqueues one single-sample request and returns the
// channel its Result will be delivered on. The channel is buffered, so
// a caller that abandons it does not wedge a worker.
func (s *Server) InferAsync(model string, inputs map[string]*tensor.Tensor, opts InferOptions) (<-chan Result, error) {
	ch := make(resultChan, 1)
	if err := s.InferTo(model, inputs, opts, ch); err != nil {
		return nil, err
	}
	return ch, nil
}

// InferTo enqueues one single-sample request whose Result is handed to
// sink.Deliver — exactly once, on a server goroutine — instead of a
// channel. A caller that routes results onward (the fleet router) reacts
// inside Deliver without a goroutine of its own waiting per request. An
// error means the request was not accepted and sink is never called.
// Like InferAsync, it blocks while the server's queue is full.
func (s *Server) InferTo(model string, inputs map[string]*tensor.Tensor, opts InferOptions, sink Sink) error {
	if opts.Priority < 0 || opts.Priority >= numPriorities {
		return fmt.Errorf("serve: unknown priority %d", opts.Priority)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	t, ok := s.tenants[model]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("serve: model %q: %w", model, ErrNotDeployed)
	}
	s.inflight.Add(1)
	t.stats.requests++
	t.accepted++
	s.nextReq++
	id := s.nextReq
	wait := opts.MaxWait
	if opts.Priority == PriorityHigh {
		wait = 0 // high ignores MaxWait: it dispatches immediately
	} else if wait <= 0 {
		if opts.Priority == PriorityBulk {
			wait = bulkWindowFactor * t.window
		} else {
			wait = t.window
		}
	}
	s.mu.Unlock()
	arrival := opts.SimArrival
	if arrival < 0 {
		arrival = 0
	}
	r := &request{
		t:          t,
		id:         id,
		inputs:     inputs,
		sink:       sink,
		priority:   opts.Priority,
		deadline:   time.Now().Add(wait),
		simArrival: arrival,
	}
	s.incoming <- r
	return nil
}

// Warm compiles a model's variants for the given buckets (all its
// configured buckets when none are named) — on every device class of
// the pool — before traffic arrives. The compiles run concurrently
// through the server's compile pool (ServerOptions.CompileJobs wide);
// the returned error joins every failed compile's error, naming the
// bucket (and the device on a heterogeneous pool). Warm fails on a
// closed server, and compiles not yet started when the model is
// concurrently Undeployed (or the server Closed) fail with
// ErrNotDeployed/ErrClosed instead of compiling for a dead tenant —
// compiles already running finish, but are dropped with the tenant.
func (s *Server) Warm(model string, buckets ...int) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	t, ok := s.tenants[model]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("serve: model %q: %w", model, ErrNotDeployed)
	}
	if len(buckets) == 0 {
		buckets = t.buckets
	}
	s.mu.Unlock()
	classes := s.pool.classes
	errs := make([]error, len(buckets)*len(classes))
	var wg sync.WaitGroup
	for i, b := range buckets {
		for _, c := range classes {
			wg.Add(1)
			go func(slot, b int, c deviceClass) {
				defer wg.Done()
				s.mu.Lock()
				dead := error(nil)
				switch {
				case s.closed:
					dead = ErrClosed
				case t.removed:
					dead = ErrNotDeployed
				}
				s.mu.Unlock()
				if dead != nil {
					errs[slot] = fmt.Errorf("bucket %d on %s: %w", b, c.dev.Name, dead)
					return
				}
				if v := s.variantFor(t, c.id, b); v.err != nil {
					errs[slot] = fmt.Errorf("bucket %d on %s: %w", b, c.dev.Name, v.err)
				}
			}(i*len(classes)+c.id, b, c)
		}
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ModelStats returns one deployed model's serving counters.
func (s *Server) ModelStats(name string) (Stats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		return Stats{}, false
	}
	return t.snapshotLocked(), true
}

// Stats aggregates the counters of every model this server has ever
// deployed (undeployed models' served traffic stays counted; their
// Variants do not appear, since Undeploy releases the compiled
// modules). SimMakespan is the largest worker clock: the modeled wall
// time to drain everything served so far.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

// statsLocked is Stats for a caller holding s.mu: the retired
// snapshot, plus every live tenant's, plus the server-level fields.
func (s *Server) statsLocked() Stats {
	agg := s.retired.snapshot()
	for _, t := range s.order {
		agg.Add(t.snapshotLocked())
	}
	agg.SimMakespan = s.simMakespanLocked()
	agg.Devices = s.deviceStatsLocked()
	agg.BacklogSeconds = s.backlogLocked()
	return agg
}

// deviceStatsLocked copies the per-worker rows and fills their
// UtilizationShare (caller holds s.mu). Batches sum to the aggregate
// batch count and utilization shares to 1 (once any work ran), so
// per-device accounting is exact against the aggregate.
func (s *Server) deviceStatsLocked() []DeviceStats {
	total := 0.0
	for _, w := range s.workers {
		total += w.BusySeconds
	}
	out := slices.Clone(s.workers)
	if total > 0 {
		for w := range out {
			out[w].UtilizationShare = out[w].BusySeconds / total
		}
	}
	return out
}

// Pending returns the number of accepted, not-yet-dispatched requests
// across all models. Benchmarks that want a deterministic batch
// composition gate the first dispatch (e.g. behind the compile
// function) and poll Pending until every enqueued request is visible to
// the scheduler, so planning always sees the whole queue regardless of
// wall-clock scheduling noise.
func (s *Server) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingTotal
}

// SimMakespan returns the largest worker clock without building the
// full aggregate snapshot.
func (s *Server) SimMakespan() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.simMakespanLocked()
}

func (s *Server) simMakespanLocked() float64 {
	var m float64
	for _, w := range s.workers {
		m = max(m, w.SimMakespan)
	}
	return m
}

// snapshotLocked is one tenant's Stats: its counters plus the buckets
// with a live compiled variant (caller holds s.mu).
func (t *tenant) snapshotLocked() Stats {
	st := t.stats.snapshot()
	for key, v := range t.variants {
		if v.mod != nil && v.err == nil {
			st.Variants = append(st.Variants, key.bucket)
		}
	}
	slices.Sort(st.Variants)
	st.Variants = slices.Compact(st.Variants)
	return st
}

// Close rejects new requests, flushes and answers every accepted
// request (batch windows are cut short), and stops the scheduler and
// workers; in-flight compiles have finished when it returns. Safe to
// call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		s.wg.Wait()
		return
	}
	s.closed = true
	s.flushing = true
	s.mu.Unlock()
	s.nudge()
	s.inflight.Wait()
	close(s.incoming)
	<-s.done
	s.wg.Wait()
}

// nudge wakes the scheduler without blocking.
func (s *Server) nudge() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// respond answers one request and retires it from the in-flight count.
func (s *Server) respond(r *request, res Result) {
	r.sink.Deliver(res)
	s.inflight.Done()
}

// enqueue moves an accepted request into its tenant's priority queue
// (or answers it immediately if the tenant was undeployed in between).
func (s *Server) enqueue(r *request) {
	s.mu.Lock()
	removed := r.t.removed
	if !removed {
		r.t.queues[r.priority] = append(r.t.queues[r.priority], r)
		r.t.pending++
		s.pendingTotal++
	}
	s.mu.Unlock()
	if removed {
		s.respond(r, Result{
			Err:      fmt.Errorf("serve: model %q undeployed: %w", r.t.name, ErrNotDeployed),
			Model:    r.t.name,
			Priority: r.priority,
		})
	}
}

// schedule is the scheduler loop: it absorbs arrivals into per-tenant
// priority queues and dispatches ready batches to workers by modeled
// earliest finish time across the device pool (deterministic,
// cost-aware load balance across the simulated streams). Tenant
// selection is weighted round-robin; within a tenant, batches drain
// high-priority requests first.
func (s *Server) schedule() {
	defer func() {
		s.mu.Lock()
		chs := s.workerCh
		s.mu.Unlock()
		for _, ch := range chs {
			close(ch)
		}
		close(s.done)
	}()
	open := true // incoming not yet closed
	for {
		open = s.drainIncoming(open)
		if job := s.nextJob(time.Now()); job != nil {
			s.dispatch(job)
			continue
		}
		if !open && !s.hasPending() {
			return
		}
		s.await(open)
	}
}

// dispatch places one ready batch on the earliest-finish-time worker,
// commits that worker's modeled finish time, and hands the batch over.
// Every device class is already priced when a batch reaches here
// (nextJob defers un-priced buckets to background pricing compiles),
// so pricing is a single locked read of the cost memo. On homogeneous
// pools with equal costs EFT degenerates to round-robin; with mixed
// devices the fast class absorbs proportionally more work, and a full
// bucket never waits while any worker's modeled finish time would
// admit it earlier.
func (s *Server) dispatch(job *batchJob) {
	if job.bucket < len(job.reqs) {
		job.bucket = len(job.reqs)
	}
	for _, r := range job.reqs {
		if r.simArrival > job.arrival {
			job.arrival = r.simArrival
		}
	}
	costs, live := s.dispCosts, s.dispLive
	s.mu.Lock()
	for c := range costs {
		key := vkey{class: c, bucket: job.bucket}
		if cost, ok := job.t.costs[key]; ok {
			costs[c] = cost
			v := job.t.variants[key]
			live[c] = v != nil && v.mod != nil && v.err == nil
		} else {
			// Pricing resolved with a failed compile: never placeable
			// unless every class failed (then worker 0 surfaces the
			// error).
			costs[c], live[c] = math.Inf(1), false
		}
	}
	s.mu.Unlock()
	pl := s.pool.place(costs, live, job.arrival)
	job.worker, job.class = pl.worker, pl.class
	if !math.IsInf(pl.finish, 1) {
		job.cost, job.priced = costs[pl.class], true
	}
	s.pool.commit(pl)
	if job.priced {
		// Mirror the committed finish time under s.mu for the backlog
		// probe (the pool's own sched stays scheduler-private).
		s.mu.Lock()
		s.schedModel[pl.worker] = pl.finish
		s.mu.Unlock()
	}
	if s.tr != nil {
		var eft strings.Builder
		for c, cost := range costs {
			if c > 0 {
				eft.WriteByte(',')
			}
			eft.WriteString(s.pool.classes[c].dev.Name)
			eft.WriteByte('=')
			eft.WriteString(strconv.FormatFloat(cost, 'g', -1, 64))
		}
		args := []obs.Arg{
			{Key: "model", Val: job.t.name},
			{Key: "bucket", Val: job.bucket},
			{Key: "rows", Val: len(job.reqs)},
			{Key: "worker", Val: pl.worker},
			{Key: "class", Val: s.pool.classes[pl.class].dev.Name},
			{Key: "eft_costs", Val: eft.String()},
		}
		if !math.IsInf(pl.finish, 1) {
			args = append(args, obs.Arg{Key: "finish", Val: pl.finish})
		}
		s.trSched.Emit(obs.Span{
			Name: obs.KindDispatch, Cat: obs.CatBatch, Proc: s.trProc,
			Track: "scheduler", Start: job.arrival, Args: args,
		})
	}
	s.workerCh[pl.worker] <- *job
}

// bucketPricedLocked reports whether every device class has a resolved
// price for the bucket: a memoized cost, or a compile that completed
// with an error (caller holds s.mu).
func (s *Server) bucketPricedLocked(t *tenant, k int) bool {
	for c := range s.pool.classes {
		key := vkey{class: c, bucket: k}
		if _, ok := t.costs[key]; ok {
			continue
		}
		if v := t.variants[key]; v != nil && v.err != nil {
			continue
		}
		return false
	}
	return true
}

// ensurePricingLocked kicks off background pricing compiles for a
// bucket's unresolved classes, at most once at a time per bucket
// (caller holds s.mu). The scheduler keeps dispatching other tenants
// while the compiles run; completion nudges it back.
func (s *Server) ensurePricingLocked(t *tenant, k int) {
	if t.pricing == nil {
		t.pricing = make(map[int]bool)
	}
	if t.pricing[k] {
		return
	}
	t.pricing[k] = true
	// Tracked on the server WaitGroup so Close waits for in-flight
	// pricing compiles — their tuning-log entries land before a
	// close-time persist.
	s.wg.Add(1)
	go s.priceBucket(t, k)
}

// priceBucket compiles a bucket's variant on every class that has no
// resolved price yet (concurrently, each gated by the CompileJobs
// pool), then clears the in-flight mark and wakes the scheduler.
// Classes whose cost is memoized are skipped — pricing never
// recompiles an evicted variant — and an Undeploy races the compiles
// the same way it races Warm: classes not yet started are abandoned
// rather than compiled for a dead tenant. A closing (flushing) server
// still prices, because its queued requests must be answered.
func (s *Server) priceBucket(t *tenant, k int) {
	defer s.wg.Done()
	var wg sync.WaitGroup
	for c := range s.pool.classes {
		key := vkey{class: c, bucket: k}
		s.mu.Lock()
		done := t.removed
		if !done {
			_, done = t.costs[key]
		}
		if !done {
			if v := t.variants[key]; v != nil && v.err != nil {
				done = true
			}
		}
		s.mu.Unlock()
		if done {
			continue
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.variantFor(t, c, k)
		}(c)
	}
	wg.Wait()
	s.mu.Lock()
	delete(t.pricing, k)
	s.mu.Unlock()
	s.nudge()
}

// drainIncoming absorbs requests already queued on the incoming
// channel without blocking, stopping once the absorbed backlog reaches
// QueueDepth (further arrivals stay in the channel, so producers feel
// backpressure). Returns whether the channel is still open.
func (s *Server) drainIncoming(open bool) bool {
	for open {
		if s.queuesFull() {
			return true
		}
		select {
		case r, ok := <-s.incoming:
			if !ok {
				return false
			}
			s.enqueue(r)
		default:
			return true
		}
	}
	return false
}

// queuesFull reports whether the absorbed backlog has reached the
// configured QueueDepth.
func (s *Server) queuesFull() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingTotal >= s.opts.QueueDepth
}

// await blocks until something can have changed the schedule: a new
// arrival (only while the backlog has room), a nudge (Close/Undeploy),
// or the nearest request deadline.
func (s *Server) await(open bool) {
	var inCh chan *request
	if open && !s.queuesFull() {
		inCh = s.incoming
	}
	var timerC <-chan time.Time
	if wait, ok := s.nearestDeadline(time.Now()); ok {
		// An already-expired deadline (floored to 0) can reach here
		// only while a batch waits on a background pricing compile —
		// nextJob dispatches expired work otherwise. Poll at 1ms
		// instead of spinning hot until the compile's nudge arrives;
		// genuinely future deadlines keep their exact timer.
		if wait == 0 {
			wait = time.Millisecond
		}
		timer := time.NewTimer(wait)
		defer timer.Stop()
		timerC = timer.C
	}
	select {
	case r, ok := <-inCh:
		if ok {
			s.enqueue(r)
		}
		// A closed channel is noticed by the next drainIncoming.
	case <-s.kick:
	case <-timerC:
	}
}

// hasPending reports whether any tenant has queued requests.
func (s *Server) hasPending() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.order {
		if t.pending > 0 {
			return true
		}
	}
	return false
}

// nearestDeadline returns how long until the earliest queued request's
// deadline (clamped to >= 0), or ok=false when nothing is queued. The
// scan is O(queued requests) because MaxWait can vary per request
// (FIFO heads are not necessarily earliest); at this simulation's
// scale (queues bounded near QueueDepth) that is deliberate — an
// incremental per-queue minimum is the upgrade path if servers ever
// hold very deep backlogs.
func (s *Server) nearestDeadline(now time.Time) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var wait time.Duration
	found := false
	for _, t := range s.order {
		for pri := range t.queues {
			for _, r := range t.queues[pri] {
				w := r.deadline.Sub(now)
				if w < 0 {
					w = 0
				}
				if !found || w < wait {
					wait, found = w, true
				}
			}
		}
	}
	return wait, found
}

// nextJob picks the next batch to dispatch, or nil when no tenant is
// ready. A tenant is ready when a high-priority request is pending,
// when its backlog fills its largest bucket, when any queued request's
// deadline has passed, when the server is flushing for Close, or — for
// continuous-batching tenants — whenever anything is pending at all
// (continuous formation is work-conserving: it sizes the batch from the
// visible queue instead of holding it for a window). Among ready
// tenants, smooth weighted round-robin decides who goes; the winner's
// batch is sized by the strict bucket rule or, for adaptive tenants, by
// the padded/continuous planner.
func (s *Server) nextJob(now time.Time) *batchJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	ready := s.ready[:0]
	defer func() {
		// Keep the backing array, not the tenants: an undeployed tenant
		// must stay collectable.
		clear(ready)
		s.ready = ready[:0]
	}()
	for _, t := range s.order {
		if t.pending == 0 || t.removed {
			continue
		}
		if (t.continuous && t.adaptive()) || s.flushing || len(t.queues[PriorityHigh]) > 0 || t.pending >= t.maxBucket() {
			ready = append(ready, t)
			continue
		}
		urgent := false
	scan:
		for pri := range t.queues {
			for _, r := range t.queues[pri] {
				if !r.deadline.After(now) {
					urgent = true
					break scan
				}
			}
		}
		if urgent {
			ready = append(ready, t)
		}
	}
	if len(ready) == 0 {
		return nil
	}
	// Every ready tenant's whole bucket ladder must be priced before any
	// batch goes out: dispatch order is the weighted-round-robin
	// contract, and serving whoever happens to be priced first would
	// invert it (the skipped pickWRR calls would also corrupt the
	// smooth-WRR state). Pricing the whole ladder, not just the bucket
	// the current pending count maps to, makes the set of pricing
	// compiles independent of how many arrivals the scheduler happened
	// to have absorbed when it first looked; the adaptive planner also
	// compares arbitrary rungs, and a plan made on a half-priced ladder
	// would depend on compile timing. Unpriced buckets compile on
	// background goroutines — overlapping through the CompileJobs pool
	// and nudging the scheduler when done — so the scheduler goroutine
	// itself stays responsive (arrivals, Undeploy, Close) during a cold
	// tenant's first compile. Warm avoids the stall entirely.
	allPriced := true
	for _, t := range ready {
		for _, b := range t.buckets {
			if !s.bucketPricedLocked(t, b) {
				s.ensurePricingLocked(t, b)
				allPriced = false
			}
		}
	}
	if !allPriced {
		return nil
	}
	t := pickWRR(ready)
	pending := t.pending
	var plan dispatchPlan
	var pt planTrace
	if t.adaptive() {
		plan, pt = s.planAdaptiveLocked(t, now)
	} else {
		k := bucketFor(t.buckets, t.pending)
		plan = dispatchPlan{take: k, bucket: k}
		pt = planTrace{mode: "strict"}
	}
	reqs := takeBatch(t, plan.take, now)
	t.pending -= len(reqs)
	t.accepted -= len(reqs)
	s.pendingTotal -= len(reqs)
	if s.tr != nil {
		arr := 0.0
		for _, r := range reqs {
			if r.simArrival > arr {
				arr = r.simArrival
			}
		}
		args := []obs.Arg{
			{Key: "model", Val: t.name},
			{Key: "mode", Val: pt.mode},
			{Key: "pending", Val: pending},
			{Key: "take", Val: len(reqs)},
			{Key: "bucket", Val: plan.bucket},
			{Key: "padded", Val: plan.bucket > len(reqs)},
		}
		if !math.IsInf(pt.strictFinish, 1) && pt.strictFinish > 0 {
			args = append(args, obs.Arg{Key: "strict_finish", Val: pt.strictFinish})
		}
		if !math.IsInf(pt.padFinish, 1) && pt.padFinish > 0 {
			args = append(args, obs.Arg{Key: "padded_finish", Val: pt.padFinish})
		}
		s.trSched.Emit(obs.Span{
			Name: obs.KindPlan, Cat: obs.CatBatch, Proc: s.trProc,
			Track: "scheduler", Start: arr, Args: args,
		})
	}
	return &batchJob{t: t, reqs: reqs, bucket: plan.bucket}
}

// planTrace carries the planner's modeled alternatives out to the plan
// span: which formation mode ran and, when the padded planner priced
// both schedules, the strict chain's and the best padded rung's
// modeled finish times.
type planTrace struct {
	mode         string
	strictFinish float64
	padFinish    float64
}

// dispatchPlan is one sizing decision: take rows off the queue, run
// them on the bucket variant (bucket > take means zero-padded rows).
type dispatchPlan struct {
	take   int
	bucket int
}

// planAdaptiveLocked sizes the next batch for a padding and/or
// continuous-batching tenant (caller holds s.mu; the tenant's whole
// bucket ladder is priced). Continuous formation first decides how many
// visible rows to coalesce; the bucket decision then prices running
// them padded on a larger rung against draining them as a strict chain.
func (s *Server) planAdaptiveLocked(t *tenant, now time.Time) (dispatchPlan, planTrace) {
	t.planRuns++
	n := t.pending
	if m := t.maxBucket(); n > m {
		n = m
	}
	vis := dispatchOrderLocked(t, n, now)
	mode := "padded"
	if t.continuous {
		vis = vis[:s.formBatchLocked(t, vis)]
		mode = "continuous"
		if t.pad {
			mode = "continuous+padded"
		}
	}
	plan, pt := s.chooseBucketLocked(t, vis)
	pt.mode = mode
	return plan, pt
}

// dispatchOrderLocked returns up to limit queued requests in exactly
// the order takeBatch would drain them — expired deadlines first, then
// priority-then-FIFO — without removing anything (caller holds s.mu).
// The planner prices the very rows the dispatch will take.
func dispatchOrderLocked(t *tenant, limit int, now time.Time) []*request {
	reqs := make([]*request, 0, limit)
	seen := make(map[*request]bool, limit)
	for pass := 0; pass < 2; pass++ {
		for _, pri := range priorityOrder {
			for _, r := range t.queues[pri] {
				if len(reqs) < limit && !seen[r] && (pass == 1 || !r.deadline.After(now)) {
					seen[r] = true
					reqs = append(reqs, r)
				}
			}
		}
	}
	return reqs
}

// formBatchLocked is continuous batch formation: starting from the
// first visible row, the batch absorbs the next queued arrival while
// the modeled marginal gain of one more row is positive, and returns
// the chosen row count. The gain of growing from m to m+1 rows is one
// saved single-row launch (the absorbed row no longer needs its own
// dispatch) plus the batch-cost delta c(m) − c(m+1), minus the extra
// wait the m rows already in the batch would pay if the next row's
// simulated arrival is later than the batch could start (its rows all
// present and a worker modeled free). Zero-gain rows are absorbed too:
// without padding, the chain-cost model plateaus exactly at bucket
// boundaries (rows past a full rung chain as their own dispatches at
// identical cost), and stopping there would wedge formation at the
// first rung forever — only a row that costs real extra wait (or a
// modeled loss) stops the scan. The scan is work-conserving: it
// only weighs rows already queued, never holds the batch for traffic
// that might arrive — so a continuous tenant's batch window is reduced
// to the MaxWait default for its requests. An unpriceable ladder makes
// the gain NaN, which stops the scan (strict fallback downstream).
func (s *Server) formBatchLocked(t *tenant, vis []*request) int {
	m := 1
	if len(vis) <= m {
		return len(vis)
	}
	c1 := s.dispatchCostLocked(t, 1)
	minSched := s.pool.minSched()
	arrMax := vis[0].simArrival
	for m < len(vis) {
		next := vis[m].simArrival
		start := arrMax
		if minSched > start {
			start = minSched
		}
		extra := next - start
		if extra < 0 {
			extra = 0
		}
		gain := c1 + s.dispatchCostLocked(t, m) - s.dispatchCostLocked(t, m+1) - float64(m)*extra
		if !(gain >= 0) { // NaN-safe: an Inf-cost ladder stops here too
			break
		}
		if next > arrMax {
			arrMax = next
		}
		m++
	}
	return m
}

// chooseBucketLocked decides how the chosen rows run: strictly (the
// largest bucket not exceeding the row count — the pre-padding rule) or
// padded onto a larger rung. Every larger compiled bucket is priced by
// the same EFT preview the dispatcher uses, at the full larger
// variant's cost; the strict alternative is the modeled makespan of
// draining the rows as a greedy chain of exact buckets. Padding wins
// only on a strictly earlier modeled completion — ties keep the strict
// plan, so the padded path never changes a cost-neutral schedule.
func (s *Server) chooseBucketLocked(t *tenant, vis []*request) (dispatchPlan, planTrace) {
	n := len(vis)
	k := bucketFor(t.buckets, n)
	strict := dispatchPlan{take: k, bucket: k}
	if !t.pad {
		return strict, planTrace{}
	}
	arr := 0.0
	for _, r := range vis {
		if r.simArrival > arr {
			arr = r.simArrival
		}
	}
	padBucket, padFinish := 0, math.Inf(1)
	for _, b := range t.buckets {
		if b <= n {
			continue
		}
		if fin := s.pool.previewFinish(s.classCostsLocked(t, b), arr); fin < padFinish {
			padBucket, padFinish = b, fin
		}
	}
	if padBucket == 0 && s.tr == nil {
		return strict, planTrace{padFinish: padFinish}
	}
	// The strict chain is the decision input when a padded rung exists;
	// with tracing on it is priced regardless, so the plan span always
	// carries both modeled alternatives (previewing on a scratch copy
	// of sched is side-effect-free — the decision is unchanged).
	chain := s.chainFinishLocked(t, vis)
	pt := planTrace{strictFinish: chain, padFinish: padFinish}
	if padBucket == 0 || !(padFinish < chain) {
		return strict, pt
	}
	return dispatchPlan{take: n, bucket: padBucket}, pt
}

// chainFinishLocked prices the strict counterfactual for a set of rows:
// decompose them greedily into exact buckets (in dispatch order, each
// segment arriving with its latest member) and EFT-place the chain on a
// scratch copy of the pool's finish times (caller holds s.mu).
func (s *Server) chainFinishLocked(t *tenant, vis []*request) float64 {
	var costSets [][]float64
	var arrivals []float64
	for i := 0; i < len(vis); {
		k := bucketFor(t.buckets, len(vis)-i)
		arr := 0.0
		for _, r := range vis[i : i+k] {
			if r.simArrival > arr {
				arr = r.simArrival
			}
		}
		costSets = append(costSets, s.classCostsLocked(t, k))
		arrivals = append(arrivals, arr)
		i += k
	}
	return s.pool.chainFinish(costSets, arrivals)
}

// classCostsLocked returns the tenant's memoized per-class costs for a
// bucket, +Inf where pricing resolved with a failed compile (caller
// holds s.mu; the planner only runs on fully priced ladders).
func (s *Server) classCostsLocked(t *tenant, b int) []float64 {
	costs := make([]float64, len(s.pool.classes))
	for c := range costs {
		if cost, ok := t.costs[vkey{class: c, bucket: b}]; ok {
			costs[c] = cost
		} else {
			costs[c] = math.Inf(1)
		}
	}
	return costs
}

// minClassCostLocked is the cheapest class's memoized cost for a bucket
// (+Inf when no class priced it), the planner's device-agnostic cost of
// one launch (caller holds s.mu).
func (s *Server) minClassCostLocked(t *tenant, b int) float64 {
	if b < len(t.minCost) {
		return t.minCost[b]
	}
	return s.scanMinClassCostLocked(t, b)
}

// scanMinClassCostLocked computes minClassCostLocked from the cost memo
// itself (caller holds s.mu).
func (s *Server) scanMinClassCostLocked(t *tenant, b int) float64 {
	best := math.Inf(1)
	for c := range s.pool.classes {
		if cost, ok := t.costs[vkey{class: c, bucket: b}]; ok && cost < best {
			best = cost
		}
	}
	return best
}

// dispatchCostLocked is the modeled cost of draining m rows in one
// dispatch decision (caller holds s.mu): with padding, the cheapest
// rung that fits them all; without, the summed cost of the greedy
// exact-bucket chain they would dispatch as.
func (s *Server) dispatchCostLocked(t *tenant, m int) float64 {
	if t.pad {
		best := math.Inf(1)
		for _, b := range t.buckets {
			if b < m {
				continue
			}
			if c := s.minClassCostLocked(t, b); c < best {
				best = c
			}
		}
		return best
	}
	total := 0.0
	for m > 0 {
		k := bucketFor(t.buckets, m)
		total += s.minClassCostLocked(t, k)
		m -= k
	}
	return total
}

// takeBatch drains up to k of a tenant's queued requests. Requests
// whose deadline has passed go first (MaxWait is a promise: an expired
// request must not be bypassed indefinitely by a stream of newer,
// higher-priority arrivals); the rest fill in priority-then-FIFO
// order.
func takeBatch(t *tenant, k int, now time.Time) []*request {
	reqs := make([]*request, 0, k)
	for pass := 0; pass < 2; pass++ {
		for _, pri := range priorityOrder {
			q := t.queues[pri]
			kept := q[:0]
			for _, r := range q {
				if len(reqs) < k && (pass == 1 || !r.deadline.After(now)) {
					reqs = append(reqs, r)
				} else {
					kept = append(kept, r)
				}
			}
			t.queues[pri] = kept
		}
	}
	return reqs
}

// pickWRR implements smooth weighted round-robin: every ready tenant
// gains its weight, the largest current weight wins and pays back the
// round's total, so interleavings are proportional to weight and
// deterministic (ready is in deploy order; the first maximum wins).
func pickWRR(ready []*tenant) *tenant {
	total := 0
	var best *tenant
	for _, t := range ready {
		t.wrr += t.weight
		total += t.weight
		if best == nil || t.wrr > best.wrr {
			best = t
		}
	}
	best.wrr -= total
	return best
}

// normalizeBuckets sorts, dedups, drops non-positive entries, and
// guarantees bucket 1 (nil means {1, 2, 4, 8}).
func normalizeBuckets(buckets []int) []int {
	if len(buckets) == 0 {
		buckets = []int{1, 2, 4, 8}
	}
	set := map[int]bool{1: true}
	for _, b := range buckets {
		if b >= 1 {
			set[b] = true
		}
	}
	out := make([]int, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// bucketFor returns the largest bucket not exceeding n (bucket 1
// always exists).
func bucketFor(buckets []int, n int) int {
	b := 1
	for _, k := range buckets {
		if k <= n {
			b = k
		}
	}
	return b
}

func (s *Server) worker(id int) {
	defer s.wg.Done()
	for job := range s.workerCh[id] {
		s.runBatch(id, job)
	}
}

// variantFor resolves (compiling at most once, through the shared
// compile pool) a tenant's module for a batch bucket on one device
// class. A successful compile memoizes the variant's modeled batch
// cost (surviving eviction, for dispatch pricing) and then enforces
// the tenant's per-class LRU budget.
func (s *Server) variantFor(t *tenant, class, batch int) *variant {
	key := vkey{class: class, bucket: batch}
	s.mu.Lock()
	v := t.variants[key]
	if v == nil {
		v = &variant{}
		t.variants[key] = v
	}
	if v.mod != nil {
		s.lruTick++
		v.lastUse = s.lruTick
	}
	s.mu.Unlock()
	v.once.Do(func() {
		s.compileSem <- struct{}{}
		defer func() { <-s.compileSem }()
		mod, err := t.compile(s.pool.classes[class].dev, batch)
		var tm float64
		var bytes int64
		if err == nil {
			tm = mod.Time()
			mem := mod.Memory()
			bytes = int64(mem.ParamBytes + mem.PlannedArenaBytes)
		}
		// Publish under s.mu so Stats (which iterates variants without
		// going through the Once) is synchronized with this write;
		// post-Do readers are already ordered by the Once itself.
		s.mu.Lock()
		v.mod, v.err, v.time, v.bytes = mod, err, tm, bytes
		if err == nil {
			t.costs[key] = tm
			if batch < len(t.minCost) {
				t.minCost[batch] = s.scanMinClassCostLocked(t, batch)
			}
			s.lruTick++
			v.lastUse = s.lruTick
			s.evictLocked(t, class, v)
		}
		s.mu.Unlock()
		if s.tr != nil {
			args := []obs.Arg{
				{Key: "model", Val: t.name},
				{Key: "device", Val: s.pool.classes[class].dev.Name},
				{Key: "bucket", Val: batch},
			}
			dur := 0.0
			if err != nil {
				args = append(args, obs.Arg{Key: "kind", Val: "error"})
			} else {
				// cold: the tuner measured candidates; predicted: the
				// cost model resolved workloads measurement-free; warm:
				// every workload came from the shared tuning log.
				tu := mod.Tuning
				kind := "warm"
				switch {
				case tu.Measurements > 0:
					kind = "cold"
				case tu.PredictedWorkloads > 0:
					kind = "predicted"
				}
				dur = tu.TuningSeconds
				args = append(args,
					obs.Arg{Key: "kind", Val: kind},
					obs.Arg{Key: "measurements", Val: tu.Measurements},
					obs.Arg{Key: "cache_hits", Val: tu.CacheHits},
					obs.Arg{Key: "predicted_workloads", Val: tu.PredictedWorkloads},
					obs.Arg{Key: "modeled_batch_seconds", Val: tm},
				)
			}
			// Compile spans live off the serving clock (tuning happens
			// before traffic is timed); Start is 0 and the exporter lays
			// the compile track out sequentially.
			s.trCompile.Emit(obs.Span{
				Name: obs.KindCompile, Cat: obs.CatCompile, Proc: s.trProc,
				Track: "compile", Dur: dur, Args: args,
			})
		}
	})
	return v
}

// evictLocked enforces a tenant's per-class variant budget (caller
// holds s.mu): while the class's live compiled variants exceed
// MaxVariantBytes, the least-recently-used one (never keep, which was
// just compiled or is about to execute) is dropped from the cache and
// counted. In-flight batches holding the evicted module finish
// normally — eviction only forgets the cache entry; a later dispatch
// recompiles it through the shared tuning log, measurement-free.
func (s *Server) evictLocked(t *tenant, class int, keep *variant) {
	if t.maxVariantBytes <= 0 {
		return
	}
	for {
		total := int64(0)
		var oldestKey vkey
		var oldest *variant
		for key, v := range t.variants {
			if key.class != class || v.mod == nil || v.err != nil {
				continue
			}
			total += v.bytes
			if v != keep && (oldest == nil || v.lastUse < oldest.lastUse) {
				oldestKey, oldest = key, v
			}
		}
		if total <= t.maxVariantBytes || oldest == nil {
			return
		}
		delete(t.variants, oldestKey)
		t.stats.evictions++
	}
}

// runBatch executes one dispatched batch on worker id and answers its
// requests. The worker's clock advances by the cost the scheduler
// priced the batch at, starting no earlier than the batch's latest
// simulated arrival — mirroring the EFT model exactly, so the clock
// converges to the scheduler's committed finish times.
func (s *Server) runBatch(id int, job batchJob) {
	n := len(job.reqs)
	b := job.bucket
	if b < n {
		b = n
	}
	var fault BatchFault
	if s.opts.Fault != nil {
		fault = s.opts.Fault(id)
		if fault.StallHostDelay > 0 {
			time.Sleep(fault.StallHostDelay)
		}
	}
	var outs []*tensor.Tensor
	err := fault.Err
	if err == nil {
		v := s.variantFor(job.t, job.class, b)
		if err = v.err; err == nil {
			outs, err = execBatch(v.mod, job.reqs, b)
		}
	}
	s.mu.Lock()
	// Advance the clock by the cost the scheduler committed to its
	// finish-time model — even when execution failed (a priced batch
	// was dispatched and must stay accounted, or sched[worker] would
	// lead the clock forever and bias every later placement away from
	// this worker). Only unpriceable batches (never committed) leave
	// the clock untouched.
	w := &s.workers[id]
	execStart := w.SimMakespan
	if job.priced {
		if job.arrival > execStart {
			execStart = job.arrival
		}
		w.SimMakespan = execStart + job.cost
		w.BusySeconds += job.cost
	}
	if fault.StallSimSeconds > 0 {
		// A stalled device stream: the batch (and every later start on
		// this worker) is late by the stall, but no useful work was
		// bought, so busy seconds stay untouched.
		w.SimMakespan += fault.StallSimSeconds
	}
	w.Batches++
	if err != nil {
		w.FailedBatches++
	}
	doneAt := w.SimMakespan
	device := w.Device
	st := &job.t.stats
	if job.t.removed {
		// The tenant was undeployed while this batch was in flight; its
		// counters were already folded into the retired accumulator, so
		// record there to keep the aggregate exact.
		st = &s.retired
	}
	st.batches++
	st.batchSizes[b]++
	if err != nil {
		st.failedBatches++
	}
	if b > n {
		st.paddedBatches++
		st.paddedRows += int64(b - n)
		w.PaddedBatches++
	}
	if doneAt > st.simMakespan {
		st.simMakespan = doneAt
	}
	// Per-request stage decomposition: formation (batch arrival −
	// request arrival), queue (execution start − batch arrival), and
	// execute (completion − start, stalls included), nudged so the
	// three sum bit-exactly to the request's SimLatency.
	stages := make([][3]float64, n)
	if err == nil {
		for i, r := range job.reqs {
			lat := doneAt - r.simArrival
			st.priLat[r.priority].add(lat)
			f, q, e := splitStages(lat, job.arrival-r.simArrival, execStart-job.arrival)
			stages[i] = [3]float64{f, q, e}
			st.observeStages(r.priority, f, q, e, lat)
		}
	}
	s.mu.Unlock()
	if s.tr != nil {
		s.trWork[id].Emit(obs.Span{
			Name: obs.KindExecute, Cat: obs.CatBatch, Proc: s.trProc,
			Track: "worker " + strconv.Itoa(id),
			Start: execStart, Dur: doneAt - execStart,
			Args: []obs.Arg{
				{Key: "model", Val: job.t.name},
				{Key: "bucket", Val: b},
				{Key: "rows", Val: n},
				{Key: "padded_rows", Val: b - n},
				{Key: "device", Val: device},
				{Key: "failed", Val: err != nil},
			},
		})
	}
	for i, r := range job.reqs {
		res := Result{
			Err:        err,
			Model:      job.t.name,
			Priority:   r.priority,
			Batch:      b,
			Worker:     id,
			Device:     device,
			SimArrival: r.simArrival,
		}
		if err == nil {
			res.Output = outs[i]
			res.SimLatency = doneAt - r.simArrival
			f, q, e := stages[i][0], stages[i][1], stages[i][2]
			// QueueWait + ExecuteSeconds reproduces SimLatency
			// bit-exactly: splitStages guarantees (f+q)+e == lat.
			res.QueueWait = f + q
			res.ExecuteSeconds = e
			if s.tr != nil {
				s.emitRequestSpans(id, r, res, f, q, e)
			}
		} else if s.tr != nil {
			s.trWork[id].Emit(obs.Span{
				Name: obs.KindRequest, Cat: obs.CatRequest, Proc: s.trProc,
				Track: reqTrack(r.id), Req: r.id,
				Start: r.simArrival, Dur: doneAt - r.simArrival,
				Args: []obs.Arg{
					{Key: "model", Val: job.t.name},
					{Key: "priority", Val: r.priority.String()},
					{Key: "failed", Val: true},
				},
			})
		}
		s.respond(r, res)
	}
}

// reqTrack names a request's Perfetto track.
func reqTrack(id int64) string { return "req " + strconv.FormatInt(id, 10) }

// emitRequestSpans records one delivered request's lifecycle tree: a
// root request span covering arrival → delivery with enqueue /
// dispatch-wait / execute / deliver children tiling it. The children's
// durations are the exact stage decomposition, so their sum equals the
// root's duration bit-for-bit.
func (s *Server) emitRequestSpans(worker int, r *request, res Result, f, q, e float64) {
	sh := s.trWork[worker]
	track := reqTrack(r.id)
	sh.Emit(obs.Span{
		Name: obs.KindRequest, Cat: obs.CatRequest, Proc: s.trProc,
		Track: track, Req: r.id,
		Start: r.simArrival, Dur: res.SimLatency,
		Args: []obs.Arg{
			{Key: "model", Val: res.Model},
			{Key: "priority", Val: r.priority.String()},
			{Key: "bucket", Val: res.Batch},
			{Key: "worker", Val: res.Worker},
			{Key: "device", Val: res.Device},
		},
	})
	t0 := r.simArrival
	t1 := t0 + f
	t2 := t1 + q
	sh.Emit(obs.Span{
		Name: obs.KindEnqueue, Cat: obs.CatRequest, Proc: s.trProc,
		Track: track, Req: r.id, Start: t0, Dur: f,
		Args: []obs.Arg{{Key: "stage", Val: stageNames[stageFormation]}},
	})
	sh.Emit(obs.Span{
		Name: obs.KindDispatch, Cat: obs.CatRequest, Proc: s.trProc,
		Track: track, Req: r.id, Start: t1, Dur: q,
		Args: []obs.Arg{{Key: "stage", Val: stageNames[stageQueue]}},
	})
	sh.Emit(obs.Span{
		Name: obs.KindExecute, Cat: obs.CatRequest, Proc: s.trProc,
		Track: track, Req: r.id, Start: t2, Dur: e,
		Args: []obs.Arg{{Key: "stage", Val: stageNames[stageExecute]}},
	})
	sh.Emit(obs.Span{
		Name: obs.KindDeliver, Cat: obs.CatRequest, Proc: s.trProc,
		Track: track, Req: r.id, Start: t2 + e, Dur: 0,
		Args: []obs.Arg{{Key: "stage", Val: stageNames[stageDeliver]}},
	})
}

// execBatch stacks the requests' inputs into batch tensors (zero-padded
// to bucket rows when the planner chose a larger variant), runs the
// variant on a pooled execution state, and splits the real rows back
// into per-request tensors — padding rows never reach a caller, and the
// real rows are bit-identical to an unpadded run because every operator
// is row-independent along the batch dimension. Runtime panics (shape
// mismatches surface that way in this codebase) are converted into
// request errors rather than taking the worker down.
func execBatch(mod *rt.Module, reqs []*request, bucket int) (outs []*tensor.Tensor, err error) {
	defer func() {
		if p := recover(); p != nil {
			outs, err = nil, fmt.Errorf("serve: batch execution failed: %v", p)
		}
	}()
	n := len(reqs)
	batchIn := make(map[string]*tensor.Tensor, len(reqs[0].inputs))
	for name := range reqs[0].inputs {
		var stacked *tensor.Tensor
		if n == 1 {
			stacked = reqs[0].inputs[name]
		} else {
			samples := make([]*tensor.Tensor, len(reqs))
			for i, r := range reqs {
				s, ok := r.inputs[name]
				if !ok {
					return nil, fmt.Errorf("serve: request %d in batch is missing input %q", i, name)
				}
				samples[i] = s
			}
			stacked = tensor.StackBatch(samples)
		}
		if bucket > n {
			stacked = tensor.PadBatch(stacked, bucket)
		}
		batchIn[name] = stacked
	}
	outs = make([]*tensor.Tensor, n)
	if bucket > n {
		// Padded run: RunRows strips the output back to the real rows
		// (pooled state handled inside, like Run).
		out := mod.RunRows(batchIn, n)
		for i := range reqs {
			outs[i] = tensor.SliceBatch(out, i)
		}
		return outs, nil
	}
	if mod.Plan == nil {
		// Hand-built module without a memory plan: clone-based path.
		out := mod.Run(batchIn)
		for i := range reqs {
			outs[i] = tensor.SliceBatch(out, i)
		}
		return outs, nil
	}
	st := mod.AcquireState()
	// Deferred so a recovered execution panic still re-pools the state
	// (ReleaseState drops the aborted run's input references).
	defer mod.ReleaseState(st)
	view := mod.RunOn(st, batchIn)
	for i := range reqs {
		outs[i] = tensor.SliceBatch(view, i)
	}
	return outs, nil
}
