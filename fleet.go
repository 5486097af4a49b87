package bolt

import (
	"fmt"
	"time"

	"bolt/internal/fleet"
	"bolt/internal/serve"
	"bolt/internal/tunelog"
)

// Fleet-layer re-exports. The router, autoscaler, and scripted
// failure injector live in internal/fleet; NewFleet wires them to this
// package's compilation pipeline and one shared tuning-log cache —
// which is what lets a replica added at runtime compile its tenants'
// variants measurement-free from its peers' entries.
type (
	// HedgeOptions configures duplicate requests on at-risk deadlines.
	HedgeOptions = fleet.HedgeOptions
	// AutoscaleOptions drives backlog-based fleet sizing: thresholds on
	// the mean modeled backlog per live replica, how many consecutive
	// Fleet.PollAutoscale calls must agree, and the replica-count
	// floor and cap.
	AutoscaleOptions = fleet.AutoscaleOptions
	// BatchFault is one injected fault decision (kill or stall) for one
	// dispatched batch.
	BatchFault = serve.BatchFault
	// FleetResult is one completed fleet request: the replica's
	// ServeResult plus the routing story (replica, hedged, retried).
	FleetResult = fleet.Result
	// FleetStats is a fleet snapshot: per-replica rows (each with its
	// full ServeStats) summing exactly to the aggregate, plus
	// router-level hedge/retry and autoscale counters.
	FleetStats = fleet.Stats
	// FleetReplicaStats is one replica's row in FleetStats.
	FleetReplicaStats = fleet.ReplicaStats
)

// Fleet errors (test with errors.Is).
var (
	// ErrFleetClosed is returned by fleet calls after Close.
	ErrFleetClosed = fleet.ErrClosed
	// ErrNoReplica is returned when no live replica can take a request.
	ErrNoReplica = fleet.ErrNoReplica
	// ErrInjectedKill is the conventional error of a scripted kill
	// (BatchFault.Err passed to Fleet.InjectFault).
	ErrInjectedKill = fleet.ErrInjectedKill
)

// FleetReplica sizes one replica's worker pool by the same rule as
// ServerOptions: Workers copies of the fleet's device (values < 1 mean
// 1), or one worker per Devices entry — not both.
type FleetReplica struct {
	Workers int
	Devices []*Device
}

// FleetOptions configures a Fleet: the initial replica pools, the
// per-replica serving knobs, the shared compilation cache, and the
// robustness machinery (hedging and autoscaling). It is
// bolt's own struct, not an alias of fleet.Options, because CacheFile,
// Jobs and the FleetReplica Workers shorthand are consumed here and
// nowhere below, and callers write these literals field by field.
type FleetOptions struct {
	// Replicas are the initial replica pools. Nil means one replica of
	// one worker.
	Replicas []FleetReplica
	// QueueDepth, BatchWindow and Jobs apply to every replica exactly
	// as the same-named ServerOptions fields do to one server.
	QueueDepth  int
	BatchWindow time.Duration
	Jobs        int
	// CacheFile backs every replica's variant compiles with one
	// persistent tuning-log database, shared fleet-wide: any bucket any
	// replica ever profiled recompiles measurement-free everywhere —
	// including on replicas the autoscaler adds mid-run, which warm
	// entirely from their peers' entries. It is read and written as
	// ServerOptions.CacheFile is.
	CacheFile string
	// Hedge configures duplicate requests when a deadline is at risk:
	// after Hedge.Timeout on the wall clock (or immediately, when the
	// chosen replica's modeled backlog exceeds Hedge.BacklogSeconds)
	// the request is duplicated on a second replica; the first healthy
	// result wins and the loser is drained and counted.
	Hedge HedgeOptions
	// Autoscale grows the fleet on sustained modeled backlog and
	// shrinks it when idle, each time the caller runs
	// Fleet.PollAutoscale; replicas it spawns take the first replica's
	// pool, redeploy every tenant through the regular Deploy lifecycle
	// and warm before routing.
	Autoscale AutoscaleOptions
	// Trace, when set, records every replica's request-lifecycle spans
	// plus the router's route/hedge/retry spans into the tracer.
	// Tracing never touches the simulated clocks.
	Trace *Tracer
	// TraceLabel names the router's process in the exported trace
	// ("fleet" when empty; replicas are always "replica N").
	TraceLabel string
}

// Fleet is the replicated serving endpoint: N Server-equivalent
// replicas behind an EFT-backlog router, sharing one tuning log and
// one compilation pipeline. See internal/fleet for the routing,
// hedging, and autoscaling semantics; this wrapper adds the bolt
// compilation story (precision gate included) on top.
type Fleet struct {
	flt  *fleet.Fleet
	pipe *tenantPipeline
}

// NewFleet starts a fleet of replicas over dev (replicas with Devices
// entries model those instead, exactly like ServerOptions.Devices).
// Models are added with Deploy; Close drains every replica and
// persists the shared tuning log.
func NewFleet(dev *Device, opts FleetOptions) (*Fleet, error) {
	if len(opts.Replicas) == 0 {
		opts.Replicas = []FleetReplica{{Workers: 1}}
	}
	// Same-named devices must agree fleet-wide, not just within one
	// replica: every replica compiles through one shared tuning log
	// whose keys are device-name-scoped.
	byName := make(map[string]*Device)
	replicas := make([][]*Device, len(opts.Replicas))
	for i, rc := range opts.Replicas {
		devices, err := workerDevices(fmt.Sprintf("FleetOptions.Replicas[%d]", i), dev, rc.Workers, rc.Devices, byName)
		if err != nil {
			return nil, err
		}
		replicas[i] = devices
	}
	log, err := tunelog.Open(opts.CacheFile)
	if err != nil {
		return nil, err
	}
	return &Fleet{
		flt: fleet.New(fleet.Options{
			Replicas:    replicas,
			QueueDepth:  opts.QueueDepth,
			BatchWindow: opts.BatchWindow,
			CompileJobs: opts.Jobs,
			Hedge:       opts.Hedge,
			Autoscale:   opts.Autoscale,
			Trace:       opts.Trace,
			TraceLabel:  opts.TraceLabel,
		}),
		pipe: newTenantPipeline(replicas[0][0], log, opts.Jobs),
	}, nil
}

// Deploy registers a model on every live replica — and on every
// replica the autoscaler adds later, which warms it measurement-free
// from the shared tuning log. Precision requests are gated once,
// fleet-wide (numerics are schedule-independent, so one gate decision
// holds for every replica).
func (f *Fleet) Deploy(name string, g *Graph, opts DeployOptions) error {
	compile, sopts, err := f.pipe.tenantCompiler(name, g, opts)
	if err != nil {
		return err
	}
	return f.flt.Deploy(name, compile, sopts)
}

// DeployReport returns the precision-gate outcome for a model
// deployed with a non-default DeployOptions.Precision (see
// Server.DeployReport).
func (f *Fleet) DeployReport(name string) (DeployReport, bool) {
	return f.pipe.report(name)
}

// Undeploy removes a model from every live replica.
func (f *Fleet) Undeploy(name string) error { return f.flt.Undeploy(name) }

// Warm compiles a model's variants on every live replica (all its
// buckets when none are named). The first replica profiles; the rest
// hit the shared tuning log.
func (f *Fleet) Warm(model string, buckets ...int) error {
	return f.flt.Warm(model, buckets...)
}

// Infer routes one single-sample request to the replica with the
// lowest modeled EFT backlog and blocks until its batch completes
// (hedging and retries included — a killed batch surfaces here only
// if every attempt failed).
func (f *Fleet) Infer(model string, inputs map[string]*Tensor, opts InferOptions) (*Tensor, error) {
	return f.flt.Infer(model, inputs, opts)
}

// InferAsync routes one request and returns the channel its
// FleetResult arrives on. Exactly one result is delivered per
// request, whatever hedges, retries, or faults happen behind it.
func (f *Fleet) InferAsync(model string, inputs map[string]*Tensor, opts InferOptions) (<-chan FleetResult, error) {
	return f.flt.InferAsync(model, inputs, opts)
}

// Replicas returns the number of live replicas.
func (f *Fleet) Replicas() int { return f.flt.Replicas() }

// Grow spawns one replica with the first configured replica's pool,
// deploys and warms every tenant on it from the shared tuning log, and
// adds it to the routing set. PollAutoscale grows through it.
func (f *Fleet) Grow() (int, error) { return f.flt.Grow() }

// Shrink retires the newest live replica after draining it.
func (f *Fleet) Shrink() (int, error) { return f.flt.Shrink() }

// PollAutoscale samples the mean per-replica backlog once and applies
// the AutoscaleOptions sizing policy, growing or shrinking by at most
// one replica. The caller paces the polls.
func (f *Fleet) PollAutoscale() (grew, shrank bool) { return f.flt.PollAutoscale() }

// InjectFault scripts a fault (kill or stall) for the next count
// batches dispatched to one worker of one replica — the fleet's one
// failure injector, deterministic by construction.
func (f *Fleet) InjectFault(replica, worker, count int, fault BatchFault) {
	f.flt.InjectFault(replica, worker, count, fault)
}

// Stats snapshots the fleet: per-replica rows plus their exact
// aggregate (quiesce first when exact sums matter).
func (f *Fleet) Stats() FleetStats { return f.flt.Stats() }

// Snapshot renders the fleet's always-on metrics as a deterministic
// text exposition: every replica's rows merged (counters add,
// histograms merge) plus the router's hedge/retry/autoscale counters.
// Works whether or not tracing is enabled.
func (f *Fleet) Snapshot() string { return f.flt.Snapshot() }

// Close stops accepting requests, drains every replica, and then
// persists the shared tuning log, returning the outcome of that final
// persist. Safe to call more than once.
func (f *Fleet) Close() error {
	f.flt.Close()
	return f.pipe.log.Persist()
}
