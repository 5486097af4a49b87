// Package obs is the deterministic observability layer for the bolt
// serving stack: request-lifecycle spans on the simulated clock, a
// metrics registry with fixed-bucket histograms, and a Chrome
// trace-event exporter whose output is byte-identical across runs.
//
// Everything here is priced in simulated seconds. Spans record *model*
// decisions (which bucket the planner chose, what each device class
// would have cost, which worker won the EFT race), not host wall-clock
// noise, so two seeded runs of the same workload export the same bytes
// and a trace can be replayed against the scheduler as an oracle.
//
// The span taxonomy mirrors a request's path through the stack:
//
//	enqueue  -> plan -> compile -> dispatch -> execute -> deliver
//	(request)  (batch) (variant)   (batch)     (batch)    (request)
//
// with fleet-level route / hedge / retry spans wrapping the per-replica
// tree. Spans are collected into per-worker shards (one mutex each,
// never contended on the hot path because each emitting goroutine owns
// its shard) and merged into one canonical order at query/export time.
package obs

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Span kinds: the span names the serving stack records.
const (
	KindRequest  = "request"  // per-request root: arrival -> delivery
	KindEnqueue  = "enqueue"  // batch-formation wait inside the queue
	KindPlan     = "plan"     // batcher decision: bucket, padding, continuous
	KindCompile  = "compile"  // variant compile (cold / warm / predicted)
	KindDispatch = "dispatch" // EFT placement across device classes
	KindExecute  = "execute"  // batch on a worker's simulated device
	KindDeliver  = "deliver"  // result handed back to the caller
	KindRoute    = "route"    // fleet: replica choice, wraps the attempt
	KindHedge    = "hedge"    // fleet: duplicate attempt, winner/loser
	KindRetry    = "retry"    // fleet: failed attempt re-routed
)

// Span categories, used as the Chrome trace "cat" field.
const (
	CatRequest = "request"
	CatBatch   = "batch"
	CatCompile = "compile"
	CatFleet   = "fleet"
)

// Span is one timed event on the simulated clock: a header (Name, Cat,
// Proc, Req, Start, Dur; Start and Dur in simulated seconds) and plain
// fields for what the serving stack records. A span's kind decides
// which fields it exports and under which keys; the others stay zero. Proc is a pid from Tracer.RegisterProcess; Req groups the
// spans of one request so tests can reassemble its lifecycle tree.
type Span struct {
	Name  string
	Cat   string
	Proc  int
	Req   int64 // 0 if not request-scoped
	Start float64
	Dur   float64

	Model    string
	Device   string // compile, batch execute, delivered request
	Class    string // dispatch: the device class the batch was placed on
	Mode     string // plan: the formation mode that ran
	Priority string // request
	Outcome  string // compile: cold, warm, predicted or error
	EFTCosts string // dispatch: every class's modeled cost, "name=cost,..."

	Bucket  int
	Rows    int // real rows: a plan's take, a dispatched or executed batch's
	Worker  int // dispatch, batch execute (its track), delivered request
	Pending int // plan: rows the tenant had queued
	Replica int // route: the serving replica; hedge: winner; retry: delivered
	From    int // hedge, retry: the replica whose risk or failure acted
	To      int // hedge, retry: the replica the extra attempt went to

	// Compile: the tuning counts and the variant's modeled batch time.
	Measurements       int
	CacheHits          int
	PredictedWorkloads int
	ModeledSeconds     float64

	Finish       float64 // dispatch: EFT finish, left out when +Inf
	StrictFinish float64 // plan: the priced alternatives, each left
	PaddedFinish float64 // out unless finite and positive

	Failed  bool // batch execute, request, route (as "error")
	Hedged  bool // route
	Retried bool // route

	// A delivered request's stage durations, summing to Dur: Emit
	// records them as the four children that tile the request.
	FormationWait float64
	QueueWait     float64
	Execute       float64
}

// stageLabels names the stage each of a delivered request's children
// exports.
var stageLabels = map[string]string{
	KindEnqueue:  "formation_wait",
	KindDispatch: "queue_wait",
	KindExecute:  "execute",
	KindDeliver:  "deliver",
}

// Each kind's export keys, in the order the canonical sort renders
// them. A failed request and an errored compile export a subset.
var (
	kindKeys = map[string][]string{
		KindPlan:     {"model", "mode", "pending", "take", "bucket", "padded", "strict_finish", "padded_finish"},
		KindDispatch: {"model", "bucket", "rows", "worker", "class", "eft_costs", "finish"},
		KindExecute:  {"model", "bucket", "rows", "padded_rows", "device", "failed"},
		KindRoute:    {"model", "replica", "hedged", "retried", "error"},
		KindHedge:    {"model", "from", "to", "winner", "loser"},
		KindRetry:    {"model", "from", "to", "delivered"},
	}
	compileKeys = []string{"model", "device", "bucket", "kind", "measurements", "cache_hits", "predicted_workloads", "modeled_batch_seconds"}
	requestKeys = []string{"model", "priority", "bucket", "worker", "device"}
	failedKeys  = []string{"model", "priority", "failed"}
	stageKeys   = []string{"stage"}
)

// keys returns the keys sp exports, in order.
func (sp *Span) keys() []string {
	switch sp.Cat {
	case CatCompile:
		if sp.Outcome == "error" {
			return compileKeys[:4]
		}
		return compileKeys
	case CatRequest:
		switch {
		case sp.Name != KindRequest:
			return stageKeys
		case sp.Failed:
			return failedKeys
		}
		return requestKeys
	}
	return kindKeys[sp.Name]
}

// argOf reads each export key off a span; a nil value leaves the key
// out. padded, padded_rows and loser are derived.
var argOf = map[string]func(*Span) any{
	"model":                 func(sp *Span) any { return sp.Model },
	"device":                func(sp *Span) any { return sp.Device },
	"class":                 func(sp *Span) any { return sp.Class },
	"mode":                  func(sp *Span) any { return sp.Mode },
	"priority":              func(sp *Span) any { return sp.Priority },
	"kind":                  func(sp *Span) any { return sp.Outcome },
	"eft_costs":             func(sp *Span) any { return sp.EFTCosts },
	"stage":                 func(sp *Span) any { return stageLabels[sp.Name] },
	"bucket":                func(sp *Span) any { return sp.Bucket },
	"rows":                  func(sp *Span) any { return sp.Rows },
	"take":                  func(sp *Span) any { return sp.Rows },
	"padded":                func(sp *Span) any { return sp.Bucket > sp.Rows },
	"padded_rows":           func(sp *Span) any { return sp.Bucket - sp.Rows },
	"worker":                func(sp *Span) any { return sp.Worker },
	"pending":               func(sp *Span) any { return sp.Pending },
	"replica":               func(sp *Span) any { return sp.Replica },
	"winner":                func(sp *Span) any { return sp.Replica },
	"delivered":             func(sp *Span) any { return sp.Replica },
	"from":                  func(sp *Span) any { return sp.From },
	"to":                    func(sp *Span) any { return sp.To },
	"loser":                 loser,
	"measurements":          func(sp *Span) any { return sp.Measurements },
	"cache_hits":            func(sp *Span) any { return sp.CacheHits },
	"predicted_workloads":   func(sp *Span) any { return sp.PredictedWorkloads },
	"modeled_batch_seconds": func(sp *Span) any { return sp.ModeledSeconds },
	"finish":                func(sp *Span) any { return finite(sp.Finish) },
	"strict_finish":         func(sp *Span) any { return priced(sp.StrictFinish) },
	"padded_finish":         func(sp *Span) any { return priced(sp.PaddedFinish) },
	"failed":                func(sp *Span) any { return sp.Failed },
	"error":                 func(sp *Span) any { return sp.Failed },
	"hedged":                func(sp *Span) any { return sp.Hedged },
	"retried":               func(sp *Span) any { return sp.Retried },
}

// loser is the hedged pair's replica that did not deliver.
func loser(sp *Span) any {
	if sp.From == sp.Replica {
		return sp.To
	}
	return sp.From
}

// finite leaves out a +Inf dispatch finish: no class could run the batch.
func finite(f float64) any {
	if math.IsInf(f, 1) {
		return nil
	}
	return f
}

// priced leaves out a plan alternative the planner did not price.
func priced(f float64) any {
	if !(f > 0) {
		return nil
	}
	return finite(f)
}

// appendArgs renders the exported args as "key=value;" pairs, the
// canonical sort's last comparison.
func (sp *Span) appendArgs(b []byte) []byte {
	for _, k := range sp.keys() {
		v := argOf[k](sp)
		if v == nil {
			continue
		}
		b = append(append(b, k...), '=')
		switch x := v.(type) {
		case string:
			b = append(b, x...)
		case bool:
			b = strconv.AppendBool(b, x)
		case int:
			b = strconv.AppendInt(b, int64(x), 10)
		case float64:
			b = strconv.AppendFloat(b, x, 'g', -1, 64)
		}
		b = append(b, ';')
	}
	return b
}

// trackID places a span on a Perfetto track (thread) within its
// process: a fixed name, or a numbered one ("req N", "worker N") when
// n >= 0.
type trackID struct {
	proc int
	name string
	n    int64
}

func (sp *Span) track() trackID {
	switch {
	case sp.Cat == CatRequest:
		return trackID{sp.Proc, "req ", sp.Req}
	case sp.Cat == CatCompile:
		return trackID{sp.Proc, "compile", -1}
	case sp.Cat == CatFleet:
		return trackID{sp.Proc, "router", -1}
	case sp.Name == KindExecute:
		return trackID{sp.Proc, "worker ", int64(sp.Worker)}
	}
	return trackID{sp.Proc, "scheduler", -1}
}

func (id trackID) append(b []byte) []byte {
	b = append(b, id.name...)
	if id.n >= 0 {
		b = strconv.AppendInt(b, id.n, 10)
	}
	return b
}

func (id trackID) String() string { return string(id.append(nil)) }

// Track names the Perfetto track sp is drawn on: "scheduler",
// "compile", "router", "worker N" or "req N".
func (sp *Span) Track() string { return sp.track().String() }

// defaultShardCap bounds each shard's buffer. At roughly six spans per
// request this holds ~10k requests per shard; overflow drops the
// newest span and counts it, so a saturated trace is truncated, never
// reordered or silently wrong.
const defaultShardCap = 1 << 16

// Tracer collects spans from many goroutines. Each emitting goroutine
// asks for its own Shard once and appends locally; the Tracer merges
// shards into one canonical, deterministic order on query or export.
//
// The zero Tracer is not usable; call NewTracer.
type Tracer struct {
	mu       sync.Mutex
	procs    []string
	shards   []*Shard
	shardCap int
}

// NewTracer returns an empty tracer with the default per-shard
// capacity.
func NewTracer() *Tracer {
	return &Tracer{shardCap: defaultShardCap}
}

// RegisterProcess names a Perfetto process (a server, a fleet router)
// and returns its 1-based pid. Registration order is the pid order, so
// callers that construct processes deterministically get deterministic
// pids.
func (t *Tracer) RegisterProcess(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.procs = append(t.procs, name)
	return len(t.procs)
}

// NewShard returns a fresh span buffer owned by one emitting goroutine
// (or one low-rate shared emitter). Shards are never removed; Close is
// not needed.
func (t *Tracer) NewShard() *Shard {
	t.mu.Lock()
	defer t.mu.Unlock()
	sh := &Shard{cap: t.shardCap}
	t.shards = append(t.shards, sh)
	return sh
}

// Shard is a bounded span buffer with its own lock. The lock is
// uncontended when a single goroutine owns the shard, which is the
// serving stack's arrangement (one shard per worker, one for the
// scheduler, one for compiles).
type Shard struct {
	mu      sync.Mutex
	cap     int
	spans   []Span
	dropped int64
}

// Emit records one span; a delivered request (a KindRequest span that
// has not Failed) also records its four stage children, which tile
// [Start, Start+Dur] with its FormationWait, QueueWait and Execute.
// A span that finds the shard full is dropped and counted; see
// Tracer.Dropped.
func (sh *Shard) Emit(sp Span) {
	if sh == nil {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.add(&sp)
	if sp.Cat != CatRequest || sp.Name != KindRequest || sp.Failed {
		return
	}
	start := sp.Start
	kinds := [4]string{KindEnqueue, KindDispatch, KindExecute, KindDeliver}
	for i, dur := range [4]float64{sp.FormationWait, sp.QueueWait, sp.Execute, 0} {
		sh.add(&Span{Name: kinds[i], Cat: CatRequest, Proc: sp.Proc, Req: sp.Req, Start: start, Dur: dur})
		start += dur
	}
}

func (sh *Shard) add(sp *Span) {
	if len(sh.spans) >= sh.cap {
		sh.dropped++
		return
	}
	sh.spans = append(sh.spans, *sp)
}

// Dropped reports how many spans were discarded because a shard was
// full.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	shards := append([]*Shard(nil), t.shards...)
	t.mu.Unlock()
	var n int64
	for _, sh := range shards {
		sh.mu.Lock()
		n += sh.dropped
		sh.mu.Unlock()
	}
	return n
}

// Len reports the number of collected spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	shards := append([]*Shard(nil), t.shards...)
	t.mu.Unlock()
	n := 0
	for _, sh := range shards {
		sh.mu.Lock()
		n += len(sh.spans)
		sh.mu.Unlock()
	}
	return n
}

// Spans returns every collected span in canonical order: by start
// time, then process, track, request, name, duration, and rendered
// args. The order depends only on span *content*, so any schedule that
// produces the same spans produces the same sequence (and therefore
// the same exported bytes).
func (t *Tracer) Spans() []Span { return t.filter(func(*Span) bool { return true }) }

// ByKind returns the spans with the given name, in canonical order.
func (t *Tracer) ByKind(name string) []Span {
	return t.filter(func(sp *Span) bool { return sp.Name == name })
}

// ByRequest returns the spans of one request on one process, in
// canonical order. The KindRequest span is the root; the others are
// its children.
func (t *Tracer) ByRequest(proc int, req int64) []Span {
	return t.filter(func(sp *Span) bool { return sp.Proc == proc && sp.Req == req })
}

func (t *Tracer) filter(keep func(*Span) bool) []Span {
	var out []Span
	for _, sp := range t.sorted() {
		if keep(sp) {
			out = append(out, *sp)
		}
	}
	return out
}

// sorted returns pointers to every collected span, in canonical order.
// A shard only appends, so a recorded span never changes under a
// reader.
func (t *Tracer) sorted() []*Span {
	t.mu.Lock()
	shards := append([]*Shard(nil), t.shards...)
	t.mu.Unlock()
	var out []*Span
	for _, sh := range shards {
		sh.mu.Lock()
		for i := range sh.spans {
			out = append(out, &sh.spans[i])
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return spanLess(out[i], out[j]) })
	return out
}

func spanLess(a, b *Span) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Proc != b.Proc {
		return a.Proc < b.Proc
	}
	var at, bt [32]byte
	if c := bytes.Compare(a.track().append(at[:0]), b.track().append(bt[:0])); c != 0 {
		return c < 0
	}
	if a.Req != b.Req {
		return a.Req < b.Req
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.Dur != b.Dur {
		return a.Dur < b.Dur
	}
	return bytes.Compare(a.appendArgs(nil), b.appendArgs(nil)) < 0
}
