// Package fleet is Bolt's replicated-serving layer: N serve.Server
// replicas (each its own device pool and simulated clocks) behind one
// router. It is the in-server device pool one level up — the
// millions-of-users story — and keeps the repo's accounting
// convention: execution is functional on the host, time is priced on
// each replica's simulated devices, so fleet-level experiments stay
// deterministic.
//
// The router places every request on the live replica with the lowest
// modeled EFT backlog (serve.Server.BacklogSeconds — the same
// finish-time model in-server dispatch uses, so the two levels of
// load balancing speak one currency). Robustness is first-class:
//
//   - a scripted failure injector (InjectFault) kills or stalls a
//     chosen replica worker's next batches mid-stream (through
//     serve.ServerOptions.Fault), so every fault lands on a known
//     batch;
//   - a request whose deadline is at risk is hedged on a second
//     replica — first healthy result wins, the loser is drained and
//     counted as canceled (the serving-side analogue of concurrent
//     error detection: redundant execution masks a faulty stream);
//   - a failed batch is retried once on a different replica, so an
//     injected fault costs latency, not answers;
//   - a caller-polled autoscaler grows the fleet on sustained backlog
//     and shrinks it when idle, and a replica added at runtime warms
//     its tenants' variants measurement-free when the deploy closure
//     shares a tuning log with its peers (the bolt wrapper wires
//     exactly that).
//
// Supervision costs no goroutine per request. Each attempt is placed
// with serve.Server.InferTo and a sink inside the request's route, so
// the replica that answers drives the route forward in that same call:
// it delivers the result, records a hedge loser, or hands a retry to a
// short-lived goroutine (placing may wait on another replica's queue,
// which a replica worker must never do). The hedge deadline is a
// stoppable timer, stopped on delivery.
//
// Stats keeps per-replica rows (hedges, retries, autoscale events,
// and each replica's full serve.Stats) that sum exactly to the fleet
// aggregate, so fleet accounting is auditable the same way per-device
// accounting is inside one server.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bolt/internal/gpu"
	"bolt/internal/obs"
	"bolt/internal/serve"
	"bolt/internal/tensor"
)

// ErrClosed is returned by fleet calls after Close.
var ErrClosed = errors.New("fleet: closed")

// ErrNoReplica is returned when a request cannot be placed because no
// live replica exists (all shrunk or closed).
var ErrNoReplica = errors.New("fleet: no live replica")

// HedgeOptions configures request hedging.
type HedgeOptions struct {
	// Timeout is how long the router waits on the first attempt before
	// issuing a duplicate on a second replica (first healthy result
	// wins, the loser is drained). Zero disables hedging.
	Timeout time.Duration
	// BacklogSeconds, when > 0, hedges immediately at placement time if
	// the chosen replica's modeled backlog already exceeds it — the
	// deadline is at risk before the request even queues.
	BacklogSeconds float64
}

// Options configures a Fleet.
type Options struct {
	// Replicas are the initial replica pools, one device list per
	// replica (serve.ServerOptions.Devices: one worker per entry). At
	// least one is required.
	Replicas [][]*gpu.Device
	// QueueDepth, BatchWindow and CompileJobs are passed to every
	// replica's serve.ServerOptions.
	QueueDepth  int
	BatchWindow time.Duration
	CompileJobs int
	// Hedge configures duplicate requests on at-risk deadlines.
	Hedge HedgeOptions
	// Autoscale configures backlog-driven growth/shrink.
	Autoscale AutoscaleOptions
	// Trace, when set, records route/hedge/retry spans from the router
	// plus every replica's request-lifecycle spans into the tracer.
	// Each replica registers its own trace process ("replica N"); the
	// router's spans live under the fleet's process. Tracing never
	// touches the simulated clocks.
	Trace *obs.Tracer
	// TraceLabel names the fleet's router process in the exported trace
	// ("fleet" when empty).
	TraceLabel string
}

// tenantSpec is one deployed model's recipe, kept so replicas added
// at runtime can redeploy it through the same Deploy lifecycle.
type tenantSpec struct {
	name    string
	compile serve.CompileFunc
	opts    serve.DeployOptions
}

// replica is one serve.Server plus its router-level accounting. The
// counter fields are guarded by the owning Fleet's mu.
type replica struct {
	id   int
	srv  *serve.Server
	live bool

	grown bool // spawned by the autoscaler (or Grow), not at New

	consecFails int64 // consecutive failed attempts (health signal)

	hedgesIssued   int64 // hedges placed because this replica was slow
	hedgesWon      int64 // hedged duplicates this replica won
	hedgesCanceled int64 // this replica's attempts drained as losers
	retries        int64 // retries triggered by this replica's failures
	growEvents     int64 // 1 when this replica was added by a grow
	shrinkEvents   int64 // 1 when this replica was retired by a shrink
}

// Fleet routes requests across replicated servers. Safe for
// concurrent use.
type Fleet struct {
	opts Options
	inj  *injector

	tr      *obs.Tracer // nil when Options.Trace unset
	trProc  int         // the router's trace process id
	trShard *obs.Shard  // the router's span shard

	mu       sync.Mutex
	replicas []*replica // every replica ever, by id (retired keep their stats)
	tenants  map[string]*tenantSpec
	closed   bool

	routed        int64 // requests accepted by the fleet
	delivered     int64 // results delivered to callers
	deliveredErrs int64 // of those, delivered with an error

	consecHigh int // sustained-backlog poll streaks (autoscaler)
	consecLow  int

	// deployMu serializes tenant-set changes against replica-set
	// changes (Deploy/Undeploy vs Grow/Shrink), so a replica added
	// mid-run deploys exactly the live tenant set.
	deployMu sync.Mutex

	// routeWG counts attempts not yet answered (hedge losers included)
	// plus second-attempt placements in progress, so Close returns only
	// after every routed request settled.
	routeWG sync.WaitGroup
}

// New starts a fleet with the configured initial replicas. No
// replicas panics, as does any pool serve.NewServer rejects: the bolt
// package validates the pools before it gets here.
func New(opts Options) *Fleet {
	if len(opts.Replicas) == 0 {
		panic("fleet: Options.Replicas is empty")
	}
	f := &Fleet{
		opts:    opts,
		inj:     &injector{scripted: make(map[faultKey][]serve.BatchFault)},
		tenants: make(map[string]*tenantSpec),
	}
	if opts.Trace != nil {
		label := opts.TraceLabel
		if label == "" {
			label = "fleet"
		}
		f.tr = opts.Trace
		f.trProc = f.tr.RegisterProcess(label)
		f.trShard = f.tr.NewShard()
	}
	for _, devices := range opts.Replicas {
		f.addReplicaLocked(devices, false)
	}
	return f
}

// addReplicaLocked constructs and registers one replica over the
// given device pool (caller holds f.mu or is New).
func (f *Fleet) addReplicaLocked(devices []*gpu.Device, grown bool) *replica {
	r := &replica{id: len(f.replicas), live: true, grown: grown}
	if grown {
		r.growEvents = 1
	}
	r.srv = serve.NewServer(serve.ServerOptions{
		Devices:     devices,
		QueueDepth:  f.opts.QueueDepth,
		BatchWindow: f.opts.BatchWindow,
		CompileJobs: f.opts.CompileJobs,
		Fault:       f.inj.hook(r.id),
		Trace:       f.opts.Trace,
		TraceLabel:  fmt.Sprintf("replica %d", r.id),
	})
	f.replicas = append(f.replicas, r)
	return r
}

// liveLocked returns the live replicas (caller holds f.mu).
func (f *Fleet) liveLocked() []*replica {
	live := make([]*replica, 0, len(f.replicas))
	for _, r := range f.replicas {
		if r.live {
			live = append(live, r)
		}
	}
	return live
}

// liveCountLocked counts the live replicas without building the slice
// (caller holds f.mu).
func (f *Fleet) liveCountLocked() int {
	n := 0
	for _, r := range f.replicas {
		if r.live {
			n++
		}
	}
	return n
}

// Replicas returns the number of live replicas.
func (f *Fleet) Replicas() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.liveCountLocked()
}

// Deploy registers a model on every live replica (and on every
// replica added later). The compile closure is shared by all replicas
// — giving it a shared tuning-log cache is what makes later replicas
// warm up measurement-free.
func (f *Fleet) Deploy(name string, compile serve.CompileFunc, opts serve.DeployOptions) error {
	f.deployMu.Lock()
	defer f.deployMu.Unlock()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	if _, dup := f.tenants[name]; dup {
		f.mu.Unlock()
		return fmt.Errorf("fleet: model %q already deployed", name)
	}
	spec := &tenantSpec{name: name, compile: compile, opts: opts}
	f.tenants[name] = spec
	live := f.liveLocked()
	f.mu.Unlock()
	for i, r := range live {
		if err := r.srv.Deploy(name, compile, opts); err != nil {
			for _, u := range live[:i] {
				_ = u.srv.Undeploy(name)
			}
			f.mu.Lock()
			delete(f.tenants, name)
			f.mu.Unlock()
			return fmt.Errorf("fleet: replica %d: %w", r.id, err)
		}
	}
	return nil
}

// Undeploy removes a model from every live replica. Requests still
// queued for it are answered with ErrNotDeployed by each replica;
// hedged duplicates in flight drain cleanly.
func (f *Fleet) Undeploy(name string) error {
	f.deployMu.Lock()
	defer f.deployMu.Unlock()
	f.mu.Lock()
	if _, ok := f.tenants[name]; !ok {
		f.mu.Unlock()
		return fmt.Errorf("fleet: model %q: %w", name, serve.ErrNotDeployed)
	}
	delete(f.tenants, name)
	live := f.liveLocked()
	f.mu.Unlock()
	var errs []error
	for _, r := range live {
		if err := r.srv.Undeploy(name); err != nil {
			errs = append(errs, fmt.Errorf("replica %d: %w", r.id, err))
		}
	}
	return errors.Join(errs...)
}

// Warm compiles a model's variants on every live replica (all its
// buckets when none are named).
func (f *Fleet) Warm(model string, buckets ...int) error {
	f.mu.Lock()
	live := f.liveLocked()
	f.mu.Unlock()
	var errs []error
	for _, r := range live {
		if err := r.srv.Warm(model, buckets...); err != nil {
			errs = append(errs, fmt.Errorf("replica %d: %w", r.id, err))
		}
	}
	return errors.Join(errs...)
}

// Infer routes one request and blocks for its result.
func (f *Fleet) Infer(model string, inputs map[string]*tensor.Tensor, opts serve.InferOptions) (*tensor.Tensor, error) {
	ch, err := f.InferAsync(model, inputs, opts)
	if err != nil {
		return nil, err
	}
	res := <-ch
	return res.Output, res.Err
}

// InferAsync places one request on the live replica with the lowest
// modeled EFT backlog and returns the channel its Result arrives on.
// The enqueue happens synchronously in the caller's goroutine (so a
// single producer observes the same arrival order a bare server
// would, and replica backpressure blocks the caller exactly like
// serve.Server.InferAsync), and so does an immediate hedge. After
// that no goroutine waits on the request: the replicas deliver each
// attempt's answer straight into its route, which hedges on a timer,
// retries, or hands the one Result to the caller from there.
func (f *Fleet) InferAsync(model string, inputs map[string]*tensor.Tensor, opts serve.InferOptions) (<-chan Result, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := f.tenants[model]; !ok {
		f.mu.Unlock()
		return nil, fmt.Errorf("fleet: model %q: %w", model, serve.ErrNotDeployed)
	}
	r, backlog := f.pickLocked(nil)
	if r == nil {
		f.mu.Unlock()
		return nil, ErrNoReplica
	}
	f.routed++
	hedgeNow := f.opts.Hedge.BacklogSeconds > 0 && backlog > f.opts.Hedge.BacklogSeconds &&
		f.liveCountLocked() > 1
	f.mu.Unlock()
	rt := &route{
		f: f, model: model, inputs: inputs, opts: opts,
		out:     make(chan Result, 1),
		placing: hedgeNow, // the primary's answer waits for the hedge
		note:    newRouteNote(model),
	}
	rt.att[0] = attemptSink{rt: rt, i: 0, rep: r}
	rt.att[1] = attemptSink{rt: rt, i: 1}
	// One routeWG count for the primary attempt, one for an immediate
	// hedge's placement — both taken before the primary can answer.
	pending := 1
	if hedgeNow {
		pending = 2
	}
	f.routeWG.Add(pending)
	if err := r.srv.InferTo(model, inputs, opts, &rt.att[0]); err != nil {
		f.routeWG.Add(-pending)
		f.mu.Lock()
		f.routed--
		f.mu.Unlock()
		return nil, fmt.Errorf("fleet: replica %d: %w", r.id, err)
	}
	if hedgeNow {
		rt.place(false, serve.Result{})
	} else if d := f.opts.Hedge.Timeout; d > 0 {
		rt.mu.Lock()
		if !rt.finished {
			rt.timer = time.AfterFunc(d, rt.hedge)
		}
		rt.mu.Unlock()
	}
	return rt.out, nil
}

// Close stops accepting requests, drains every replica (all accepted
// requests are answered), and waits until every attempt — hedge losers
// and retries included — has answered. Safe to call more than once.
func (f *Fleet) Close() {
	f.mu.Lock()
	wasClosed := f.closed
	f.closed = true
	live := f.liveLocked()
	f.mu.Unlock()
	if !wasClosed {
		for _, r := range live {
			r.srv.Close()
		}
	}
	f.routeWG.Wait()
}
