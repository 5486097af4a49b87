package bolt

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"bolt/internal/accuracy"
	"bolt/internal/gpu"
	"bolt/internal/obs"
	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/serve"
	"bolt/internal/tensor"
	"bolt/internal/tunelog"
)

// Serving-layer re-exports. The multi-tenant scheduler lives in
// internal/serve; NewServer wires it to this package's compilation
// pipeline and tuning-log cache.
type (
	// ServeStats is a snapshot of serving counters, per model or
	// aggregate, with per-priority latency windows.
	ServeStats = serve.Stats
	// ServeResult is one completed request (InferAsync).
	ServeResult = serve.Result
	// Priority classifies a request for the scheduler.
	Priority = serve.Priority
	// InferOptions carries a request's Priority, MaxWait, and simulated
	// arrival time.
	InferOptions = serve.InferOptions
	// DeviceStats is one worker's share of the served work on a
	// (possibly heterogeneous) pool: busy seconds, batches, utilization
	// share, and per-device makespan.
	DeviceStats = serve.DeviceStats
	// StageBreakdown is one priority class's accumulated stage-latency
	// decomposition (ServeStats.Stages): formation wait + queue wait +
	// execute + deliver, summing bit-exactly to latency per request.
	StageBreakdown = serve.StageBreakdown
	// Tracer records deterministic request-lifecycle spans from every
	// endpoint it is handed to (ServerOptions.Trace,
	// FleetOptions.Trace). Export with ExportJSON — the output is
	// Chrome trace-event JSON, viewable in Perfetto.
	Tracer = obs.Tracer
	// TraceSpan is one recorded span (Tracer query APIs).
	TraceSpan = obs.Span
)

// NewTracer returns an empty tracer ready to hand to ServerOptions.Trace
// or FleetOptions.Trace. Tracing never touches the simulated clocks:
// every benchmark number and stats oracle is bit-identical with and
// without it.
func NewTracer() *Tracer { return obs.NewTracer() }

// Request priorities. High preempts the batch window, bulk waits for
// full buckets; neither can starve another model thanks to the
// weighted round-robin across tenants.
const (
	PriorityNormal = serve.PriorityNormal
	PriorityHigh   = serve.PriorityHigh
	PriorityBulk   = serve.PriorityBulk
)

// Serving errors (test with errors.Is).
var (
	// ErrServeClosed is returned by Infer/Deploy after Close.
	ErrServeClosed = serve.ErrClosed
	// ErrNotDeployed is returned for model names the server does not
	// (or no longer) serve(s).
	ErrNotDeployed = serve.ErrNotDeployed
)

// ServerOptions configures the resources every model deployed on one
// Server shares.
type ServerOptions struct {
	// Workers is the number of concurrent executors (simulated device
	// streams) shared by all models: shorthand for Workers copies of
	// the device NewServer was given. Values < 1 mean 1. Mutually
	// exclusive with Devices.
	Workers int
	// Devices makes the pool heterogeneous: one worker per entry, each
	// modeling that device (e.g. {T4(), T4(), A100()}). Every deployed
	// model compiles per-(device, bucket) variants through the shared
	// tuning log (keys are device-scoped, so all classes coexist in one
	// cache file), and the scheduler dispatches each batch to the
	// worker with the smallest modeled finish time (clock + that
	// device's batch cost) — big buckets gravitate to the fast device.
	// Mutually exclusive with Workers: setting both is a configuration
	// error, not a preference.
	Devices []*Device
	// QueueDepth bounds the pending-request queue across all models;
	// Infer blocks when it is full. Values < 1 mean 1024.
	QueueDepth int
	// BatchWindow is the default batch window for models that do not
	// set their own: how long the batcher holds an underfull
	// normal-priority batch hoping to fill the largest bucket (0 =
	// dispatch greedily). High-priority requests preempt it; bulk
	// requests wait several windows for a full bucket.
	BatchWindow time.Duration
	// CacheFile backs every model's variant compiles with one
	// persistent tuning-log database: the server loads it once, shares
	// the in-memory log across all tenants' compiles (buckets whose
	// workloads were ever profiled before recompile measurement-free —
	// the paper's §2.1 serving story), and persists it after each
	// compile and on Close.
	CacheFile string
	// Jobs is both the profiling pool width within one variant compile
	// and how many variant compiles (Warm or lazy) may run
	// concurrently — a Jobs-wide Warm can briefly run Jobs^2 profiling
	// goroutines. That is deliberate: profiling work is simulated
	// (cheap host goroutines), each compile's TuningTime is its own
	// pool's critical path regardless of what runs beside it, and
	// kernel selection is deterministic for any pool width.
	Jobs int
	// Trace, when set, records request-lifecycle spans (enqueue → plan
	// → compile → dispatch → execute → deliver) into the tracer.
	// Tracing never touches the simulated clocks.
	Trace *Tracer
	// TraceLabel names this server's process in the exported trace
	// ("server" when empty).
	TraceLabel string
}

// Precision selects the compute precision a tenant's variants are
// compiled at. The zero value serves the model exactly as authored —
// bit-identical to servers that predate mixed precision.
type Precision int

const (
	// PrecisionDefault compiles the graph as authored (no rewrite).
	PrecisionDefault Precision = iota
	// PrecisionFP32 serves CUDA-core FP32 variants — also the oracle
	// every reduced-precision deploy is gated against.
	PrecisionFP32
	// PrecisionFP16 serves tensor-core FP16 variants.
	PrecisionFP16
	// PrecisionINT8 serves tensor-core INT8 variants (weight-side
	// symmetric quantization with dynamically scaled activations).
	PrecisionINT8
)

// String names the precision.
func (p Precision) String() string {
	switch p {
	case PrecisionDefault:
		return "default"
	case PrecisionFP32:
		return "float32"
	case PrecisionFP16:
		return "float16"
	case PrecisionINT8:
		return "int8"
	default:
		return fmt.Sprintf("precision(%d)", int(p))
	}
}

// dtype maps the precision to its tensor dtype; ok is false for
// PrecisionDefault (no rewrite requested).
func (p Precision) dtype() (tensor.DType, bool) {
	switch p {
	case PrecisionFP32:
		return tensor.FP32, true
	case PrecisionFP16:
		return tensor.FP16, true
	case PrecisionINT8:
		return tensor.INT8, true
	}
	return 0, false
}

// DeployReport records how a tenant's precision request was resolved:
// the served precision, the measured calibration divergence, and the
// fallback reason when the accuracy gate rejected the variant.
type DeployReport = accuracy.DivergenceReport

// calibration* fix the accuracy gate's sampling: deterministic seeded
// batches so gate decisions are reproducible across runs and pools.
const (
	calibrationBatches = 2
	calibrationSeed    = 20517
)

// DeployOptions configures one model's batching and scheduling share.
type DeployOptions struct {
	// Buckets are the allowed batch sizes (bucket 1 is implied). Nil
	// means {1, 2, 4, 8}. Each bucket compiles lazily, on first use, as
	// a batch variant of the source graph.
	Buckets []int
	// Weight is the model's weighted-round-robin share when several
	// models contend for the workers. Values < 1 mean 1.
	Weight int
	// BatchWindow overrides ServerOptions.BatchWindow for this model.
	BatchWindow time.Duration
	// MaxVariantBytes bounds the modeled memory (parameters + planned
	// activation arena) of this model's compiled variants held per
	// device class; beyond it the least-recently-used variants are
	// evicted (ServeStats.Evictions) and recompile on next use through
	// the tuning log, measurement-free. Zero means unbounded.
	MaxVariantBytes int64
	// AllowPadding lets the scheduler run a partial batch on a larger
	// compiled bucket with zero-padded rows whenever the cost model says
	// the padded run finishes earlier than draining the rows as a strict
	// chain of exact buckets. Padded outputs are stripped back to the
	// real rows (bit-identical to an unpadded run); ServeStats counts
	// the padded batches and rows. Ignored for single-bucket models.
	AllowPadding bool
	// ContinuousBatching replaces the batch-window formation rule for
	// this model: a forming batch absorbs queued arrivals while the
	// modeled marginal gain of one more row is positive, then
	// dispatches — work-conserving, so BatchWindow degrades to the
	// MaxWait default for this model's requests. Ignored for
	// single-bucket models.
	ContinuousBatching bool
	// TopK, when > 0, makes this model's variant compiles guided: the
	// cost model in the server's shared tuning log ranks each
	// workload's candidates and only the k best are measured. First-use
	// (lazy) bucket compiles are where this bites — a cold bucket under
	// live traffic tunes in a fraction of the full-sweep time. Until
	// the shared model has trained, sweeps stay full.
	TopK int
	// TrustThreshold, when > 0, lets this model's variant compiles skip
	// measurement entirely once the shared cost model's held-out
	// confidence reaches it (see Options.TrustThreshold).
	TrustThreshold float64
	// Precision requests FP32/FP16/INT8 variants for this tenant: the
	// source graph is precision-rewritten (weights cast, compute dtypes
	// annotated) before any bucket variant compiles, so every
	// (device, bucket) variant — and therefore the EFT dispatcher's
	// cost for it — is priced at that precision's tensor-core (or
	// CUDA-core) rate. The default serves the graph as authored.
	Precision Precision
	// AccuracyBudget gates reduced-precision deploys: the requested
	// variant's outputs on deterministic calibration batches must stay
	// within this relative L-inf divergence of the FP32 RunUnplanned
	// oracle, or the tenant falls back to FP32 (see DeployReport).
	// Zero means ungated. Ignored for PrecisionDefault/PrecisionFP32.
	AccuracyBudget float64
}

// Server is the multi-tenant serving endpoint: several models share
// one worker pool, one scheduler, and one tuning-log cache. Requests
// carry (model, priority); the batcher keeps per-model/per-priority
// queues and dispatches via weighted round-robin across tenants, with
// high-priority requests preempting the batch window while bulk
// requests wait for full buckets.
type Server struct {
	srv *serve.Server
	// pipe is the shared tenant-compile pipeline (tuning log, persist
	// path, precision gate); Fleet endpoints build the identical
	// pipeline, which is what makes a fleet's replicas warm from each
	// other's entries.
	pipe *tenantPipeline
}

// cachePersister owns one endpoint's persistent tuning log: the
// in-memory log shared by every tenant's compiles, plus the
// serialized, atomic write-back to its backing file. Saves first
// merge entries other processes wrote since our load (memory wins),
// then rename the whole log into place — so within one endpoint no
// compile's entries are ever lost to a load→save race.
type cachePersister struct {
	cache *tunelog.Log
	file  string
	mu    sync.Mutex
	// err is the outcome of the latest persist attempt (guarded by
	// mu); Close surfaces it.
	err error
}

// newCachePersister loads the backing file (when named) into a fresh
// shared log.
func newCachePersister(file string) (*cachePersister, error) {
	cache := tunelog.New()
	if file != "" {
		var err error
		if cache, err = loadCache(file); err != nil {
			return nil, err
		}
	}
	return &cachePersister{cache: cache, file: file}, nil
}

// persist writes the shared tuning log back to its file (a no-op
// without one, and when the log has not changed since the last
// successful write: a warm variant compile, a Close after nothing
// new).
func (p *cachePersister) persist() error {
	if p.cache == nil || p.file == "" {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil && !p.cache.Dirty() {
		return nil
	}
	if f, err := os.Open(p.file); err == nil {
		// Best-effort, memory-wins merge of external writers' entries
		// (our fresher results keep their keys); a corrupt or
		// unreadable file is simply overwritten by our good data.
		_ = p.cache.Merge(f)
		f.Close()
	}
	p.err = saveCache(p.cache, p.file)
	return p.err
}

// tenantPipeline is everything one serving endpoint (a Server or
// every replica of a Fleet) shares across its tenants' variant
// compiles: the device class accuracy gating compiles against (the
// first worker's), the shared tuning log with its persist hook, and
// the per-model precision-gate reports.
type tenantPipeline struct {
	gateDev *Device
	cp      *cachePersister
	jobs    int

	// reports holds each deployed model's precision-gate outcome
	// (models deployed at PrecisionDefault have no entry).
	reportsMu sync.Mutex
	reports   map[string]DeployReport
}

// newTenantPipeline returns an endpoint's pipeline whose precision gate
// compiles for gateDev.
func newTenantPipeline(gateDev *Device, cp *cachePersister, jobs int) *tenantPipeline {
	return &tenantPipeline{gateDev: gateDev, cp: cp, jobs: jobs, reports: make(map[string]DeployReport)}
}

// tenantCompiler resolves one model's deploy: it runs the precision
// gate (when requested), records the gate report, and returns the
// per-(device, bucket) compile closure plus the scheduler-facing
// options. The closure compiles relay.Rebatch clones through the
// regular pipeline against the shared tuning log — every endpoint
// (and every fleet replica) holding the same pipeline compiles
// measurement-free from its peers' entries.
func (p *tenantPipeline) tenantCompiler(name string, g *Graph, opts DeployOptions) (serve.CompileFunc, serve.DeployOptions, error) {
	src := g
	if dt, ok := opts.Precision.dtype(); ok {
		// Precision-rewrite the source once, gated: the requested
		// variant must clear the tenant's accuracy budget against the
		// FP32 RunUnplanned oracle on deterministic calibration batches
		// or the tenant serves FP32. Numerics are schedule-independent
		// (functional execution reuses the reference path), so gating on
		// one device class decides for the whole pool.
		deployed, rep, err := accuracy.GatePrecision(g, dt, opts.AccuracyBudget,
			calibrationBatches, calibrationSeed,
			func(cg *relay.Graph) (*rt.Module, error) {
				res, err := compileTemplated(cg, p.gateDev, templatedConfig{
					cache:          p.cp.cache,
					jobs:           p.jobs,
					topK:           opts.TopK,
					trustThreshold: opts.TrustThreshold,
				})
				if err != nil {
					return nil, err
				}
				return res.Module, nil
			})
		if err != nil {
			return nil, serve.DeployOptions{}, fmt.Errorf("bolt: deploy %s at %s: %w", name, opts.Precision, err)
		}
		src = deployed
		p.reportsMu.Lock()
		p.reports[name] = rep
		p.reportsMu.Unlock()
	}
	compile := func(dev *gpu.Device, batch int) (*rt.Module, error) {
		vg, err := relay.Rebatch(src, batch)
		if err != nil {
			return nil, err
		}
		res, err := compileTemplated(vg, dev, templatedConfig{
			cache:          p.cp.cache,
			jobs:           p.jobs,
			topK:           opts.TopK,
			trustThreshold: opts.TrustThreshold,
		})
		if err != nil {
			return nil, err
		}
		// A transient persist failure must not fail the variant: the
		// module is compiled and serviceable, the entries stay in the
		// shared in-memory log, and the next persist (next compile or
		// Close, which surfaces the latest error) retries the write.
		_ = p.cp.persist()
		return res.Module, nil
	}
	return compile, serve.DeployOptions{
		Buckets:            opts.Buckets,
		Weight:             opts.Weight,
		BatchWindow:        opts.BatchWindow,
		MaxVariantBytes:    opts.MaxVariantBytes,
		AllowPadding:       opts.AllowPadding,
		ContinuousBatching: opts.ContinuousBatching,
	}, nil
}

// report looks up a model's precision-gate outcome.
func (p *tenantPipeline) report(name string) (DeployReport, bool) {
	p.reportsMu.Lock()
	defer p.reportsMu.Unlock()
	rep, ok := p.reports[name]
	return rep, ok
}

// workerDevices resolves one worker-pool description into its device
// list, the only form of a pool below this package: Workers: n is n
// copies of dev (values < 1 mean 1), Devices is one worker per entry.
// It rejects setting both, nil entries (a nil dev behind Workers
// included), and same-named devices with different specs: workers
// that model the same device are grouped into one class by Name and
// share compiled variants, so two same-named entries with different
// specs would silently serve one spec's modules on the other's worker.
// byName accumulates across calls so a fleet's replicas are checked
// against each other — they share one tuning log, whose keys are
// device-name-scoped.
func workerDevices(field string, dev *Device, workers int, devices []*Device, byName map[string]*Device) ([]*Device, error) {
	if workers > 0 && len(devices) > 0 {
		return nil, fmt.Errorf("bolt: %s: Workers (%d) and Devices (%d entries) are mutually exclusive: Devices already implies one worker per device — set exactly one of them",
			field, workers, len(devices))
	}
	if len(devices) == 0 {
		if dev == nil {
			return nil, fmt.Errorf("bolt: %s: Workers needs a device, and the endpoint device is nil", field)
		}
		devices = make([]*Device, max(workers, 1))
		for i := range devices {
			devices[i] = dev
		}
	} else {
		devices = slices.Clone(devices) // the pool must not alias the caller's slice
	}
	for i, d := range devices {
		if d == nil {
			return nil, fmt.Errorf("bolt: %s.Devices[%d] is nil", field, i)
		}
		if prev, ok := byName[d.Name]; ok && *prev != *d {
			return nil, fmt.Errorf("bolt: %s.Devices[%d] %q differs from an earlier entry with the same name: same-named devices form one class and must have identical specs", field, i, d.Name)
		}
		byName[d.Name] = d
	}
	return devices, nil
}

// NewServer starts an empty multi-tenant server over dev: Workers
// copies of it, or ServerOptions.Devices when the pool is
// heterogeneous. Models are added with Deploy; Close drains in-flight
// work and persists the tuning log.
func NewServer(dev *Device, opts ServerOptions) (*Server, error) {
	devices, err := workerDevices("ServerOptions", dev, opts.Workers, opts.Devices, make(map[string]*Device))
	if err != nil {
		return nil, err
	}
	// The server always keeps an in-memory tuning log: it is the home
	// of the shared cost model that guided variant compiles rank by,
	// and it lets every tenant's compiles learn from each other within
	// the process even when nothing persists. With CacheFile set it is
	// additionally loaded from (and persisted to) disk.
	cp, err := newCachePersister(opts.CacheFile)
	if err != nil {
		return nil, err
	}
	return &Server{
		srv: serve.NewServer(serve.ServerOptions{
			Devices:     devices,
			QueueDepth:  opts.QueueDepth,
			BatchWindow: opts.BatchWindow,
			CompileJobs: opts.Jobs,
			Trace:       opts.Trace,
			TraceLabel:  opts.TraceLabel,
		}),
		pipe: newTenantPipeline(devices[0], cp, opts.Jobs),
	}, nil
}

// Deploy registers a model under a unique name. Each (device, batch
// bucket) variant's module is compiled on demand from a relay.Rebatch
// clone of the source graph through the regular pipeline (profiler +
// shared tunelog cache) targeting that worker's device — on a
// heterogeneous pool a T4 worker and an A100 worker each execute a
// module tuned for their own silicon, and the device-scoped tunelog
// keys keep both families in one cache file. The source graph is
// never mutated and its weights are shared across all variants.
func (s *Server) Deploy(name string, g *Graph, opts DeployOptions) error {
	compile, sopts, err := s.pipe.tenantCompiler(name, g, opts)
	if err != nil {
		return err
	}
	return s.srv.Deploy(name, compile, sopts)
}

// DeployReport returns the precision-gate outcome for a model deployed
// with a non-default DeployOptions.Precision: the served precision,
// the measured calibration divergence, and the fallback reason if the
// accuracy budget rejected the requested variant. ok is false for
// unknown models and for models served as authored.
func (s *Server) DeployReport(name string) (DeployReport, bool) {
	return s.pipe.report(name)
}

// Undeploy removes a model: new requests for it fail with
// ErrNotDeployed, queued requests are answered with the same error,
// and its served traffic stays counted in the aggregate Stats.
func (s *Server) Undeploy(name string) error { return s.srv.Undeploy(name) }

// Models lists the currently deployed model names, sorted.
func (s *Server) Models() []string { return s.srv.Models() }

// Infer runs one single-sample request (every input's leading dim must
// be 1) against a deployed model and blocks until its batch completes.
func (s *Server) Infer(model string, inputs map[string]*Tensor, opts InferOptions) (*Tensor, error) {
	return s.srv.Infer(model, inputs, opts)
}

// InferAsync enqueues one single-sample request and returns the
// channel its ServeResult will be delivered on.
func (s *Server) InferAsync(model string, inputs map[string]*Tensor, opts InferOptions) (<-chan ServeResult, error) {
	return s.srv.InferAsync(model, inputs, opts)
}

// Warm compiles a model's variants for the given buckets (all its
// configured buckets when none are named) before traffic arrives. The
// compiles run concurrently, Jobs wide; the returned error joins every
// failed bucket's error, naming the bucket.
func (s *Server) Warm(model string, buckets ...int) error {
	return s.srv.Warm(model, buckets...)
}

// Stats aggregates every model's serving counters (with per-priority
// latency windows; see ServeStats.PriorityPercentile).
// ServeStats.BacklogSeconds carries the modeled EFT backlog at
// snapshot time; use Backlog for the probe alone.
func (s *Server) Stats() ServeStats { return s.srv.Stats() }

// Backlog returns the server's modeled EFT backlog — the simulated
// seconds of accepted-but-unfinished work (queued rows priced by the
// dispatcher's own memoized bucket costs, plus committed-but-unretired
// batch time) — without building a full stats snapshot. This is the
// signal fleet routers and autoscalers balance on.
func (s *Server) Backlog() float64 { return s.srv.BacklogSeconds() }

// ModelStats returns one deployed model's serving counters.
func (s *Server) ModelStats(name string) (ServeStats, bool) { return s.srv.ModelStats(name) }

// Snapshot renders the server's always-on metrics as a deterministic
// text exposition: request/batch counters, per-worker device rows,
// per-stage latency histograms, and per-priority breakdowns. Works
// whether or not tracing is enabled.
func (s *Server) Snapshot() string { return s.srv.Snapshot() }

// Close rejects new requests, flushes and answers every accepted
// request, stops the workers, and then persists the tuning log,
// returning the outcome of that final persist. Safe to call more than
// once.
func (s *Server) Close() error {
	s.srv.Close()
	return s.pipe.cp.persist()
}
