package serve

import (
	"slices"

	"bolt/internal/obs"
)

// Priority classifies a request for the scheduler. Priorities shape
// *when* a request is batched, never *whether* it is served: the
// weighted round-robin across tenants guarantees every deployed model
// makes progress regardless of the priority mix.
type Priority int

const (
	// PriorityNormal (the zero value, so it is the default) dispatches
	// when a full bucket is available or after the tenant's batch
	// window.
	PriorityNormal Priority = iota
	// PriorityHigh is latency-sensitive: its presence preempts the
	// batch window — the tenant dispatches immediately with whatever is
	// pending, high-priority requests first.
	PriorityHigh
	// PriorityBulk is throughput-oriented: it waits for a full largest
	// bucket, holding out bulkWindowFactor times the batch window (or
	// InferOptions.MaxWait) before dispatching underfull.
	PriorityBulk

	numPriorities = 3
)

// priorityOrder is the order requests are drained into a batch within
// one tenant: latency-sensitive first, bulk last.
var priorityOrder = [numPriorities]Priority{PriorityHigh, PriorityNormal, PriorityBulk}

func (p Priority) String() string {
	switch p {
	case PriorityHigh:
		return "high"
	case PriorityNormal:
		return "normal"
	case PriorityBulk:
		return "bulk"
	}
	return "invalid"
}

// DeviceStats is one worker's share of the served work: which device
// it models, how much simulated time it spent executing, and how many
// batches it ran. Batches sum to the aggregate Stats.Batches and
// UtilizationShare to 1 (once any work ran), so per-device accounting
// is exact against the aggregate.
type DeviceStats struct {
	// Worker is the executor index.
	Worker int
	// Device names the worker's device.
	Device string
	// Batches counts batches dispatched to this worker.
	Batches int64
	// FailedBatches counts this worker's batches answered with an error
	// (compile failures, execution errors, injected faults). Sums to the
	// aggregate Stats.FailedBatches.
	FailedBatches int64
	// PaddedBatches counts this worker's batches that ran on a bucket
	// larger than their real row count (zero-padded rows filled the
	// rest). Sums to the aggregate Stats.PaddedBatches.
	PaddedBatches int64
	// BusySeconds is the simulated time this worker spent executing
	// (the sum of its batches' modeled costs).
	BusySeconds float64
	// SimMakespan is this worker's simulated clock: when its last batch
	// finished.
	SimMakespan float64
	// UtilizationShare is this worker's BusySeconds over the pool's
	// total busy time — on a well-balanced heterogeneous pool it tracks
	// the devices' modeled speed ratio.
	UtilizationShare float64
}

// Stats is a snapshot of serving counters — per model (ModelStats) or
// aggregated across every model a server has ever deployed (Stats).
type Stats struct {
	Requests int64
	Batches  int64
	// Evictions counts compiled variants dropped by the per-tenant LRU
	// budget (DeployOptions.MaxVariantBytes).
	Evictions int64
	// FailedBatches counts batches answered with an error — compile
	// failures, execution errors, or faults injected through
	// ServerOptions.Fault. Every request in a failed batch received the
	// batch's error.
	FailedBatches int64
	// BacklogSeconds is the modeled EFT backlog at snapshot time —
	// simulated seconds of accepted-but-unfinished work (see
	// Server.BacklogSeconds). Aggregate snapshots only; 0 on per-model
	// snapshots.
	BacklogSeconds float64
	// PaddedBatches counts batches that ran on a bucket larger than
	// their real row count (DeployOptions.AllowPadding dispatches).
	PaddedBatches int64
	// PaddedRows counts the zero-padding rows across those batches —
	// the modeled compute spent buying earlier schedule slots.
	PaddedRows int64
	// BatchSizes histograms dispatched batch sizes (padded batches count
	// under the bucket they ran on, not their real row count).
	BatchSizes map[int]int64
	// Variants lists the bucket sizes with a live compiled variant on
	// at least one device class (evicted variants drop out until
	// recompiled).
	Variants []int
	// Devices holds the per-worker device rows (aggregate snapshots
	// only; nil on per-model snapshots, since workers are shared).
	Devices []DeviceStats
	// SimMakespan is the modeled wall time to drain everything served
	// so far: for a model snapshot, the simulated clock when its last
	// batch finished; for the aggregate, the largest worker clock.
	SimMakespan float64
	// PriorityLatencies holds recent requests' SimLatency values split
	// by request priority, each window unordered: for a model snapshot,
	// its last latencyWindow completions of that priority; for an
	// aggregate, the same windows concatenated across models (and
	// replicas), so every tenant's recent traffic is represented
	// regardless of its request rate. Either way a long-running
	// server's stats stay O(1) in lifetime traffic.
	PriorityLatencies map[Priority][]float64
	// Stages is the per-priority stage-latency breakdown (only
	// priorities that served traffic appear). Unlike the bounded
	// latency windows above, the breakdown accumulates over the
	// server's whole lifetime, backed by the same histograms
	// Server.Snapshot exposes.
	Stages map[Priority]StageBreakdown
}

// latencyWindow bounds the retained per-request latency samples (per
// model and per priority class).
const latencyWindow = 4096

// Stage indices of the per-request latency decomposition. Every
// successful request's end-to-end latency splits into exactly these
// four stages (see splitStages): the wait for its batch to form, the
// wait for a worker, the batch execution (including injected stalls),
// and delivery (instantaneous on the sim clock — results are handed
// back the moment the batch finishes).
const (
	stageFormation = iota
	stageQueue
	stageExecute
	stageDeliver
	numStages
)

// stageNames label the stages in Snapshot expositions.
var stageNames = [numStages]string{"formation_wait", "queue_wait", "execute", "deliver"}

// StageBreakdown is one priority class's accumulated stage-latency
// decomposition. Each successful request contributes stage durations
// that sum bit-exactly to its SimLatency (FormationWait + QueueWait +
// Execute + Deliver == SimLatency per request, in that evaluation
// order); the accumulated sums here equal the accumulated Latency up
// to float summation order across requests.
type StageBreakdown struct {
	// Count is the number of successful requests observed.
	Count int64
	// FormationWait is the summed simulated time requests spent waiting
	// for their batch to finish forming (batch arrival − request
	// arrival).
	FormationWait float64
	// QueueWait is the summed simulated time formed batches waited for
	// their worker (execution start − batch arrival).
	QueueWait float64
	// Execute is the summed simulated execution time, including
	// injected stalls.
	Execute float64
	// Deliver is the summed delivery time (0 on the sim clock).
	Deliver float64
	// Latency is the summed end-to-end SimLatency of the same requests.
	Latency float64
}

// Add folds another breakdown into this one.
func (b *StageBreakdown) Add(o StageBreakdown) {
	b.Count += o.Count
	b.FormationWait += o.FormationWait
	b.QueueWait += o.QueueWait
	b.Execute += o.Execute
	b.Deliver += o.Deliver
	b.Latency += o.Latency
}

// Add folds another snapshot into this one. It is the one rule by
// which serving stats combine — a server's tenants into its aggregate,
// a fleet's replicas into theirs: counters and BacklogSeconds add,
// BatchSizes add per bucket, the latency windows concatenate, Stages
// add, Devices append, Variants become the sorted union, and
// SimMakespan takes the larger value. s must own its maps and slices
// (a zero Stats does); o is only read.
func (s *Stats) Add(o Stats) {
	s.Requests += o.Requests
	s.Batches += o.Batches
	s.Evictions += o.Evictions
	s.FailedBatches += o.FailedBatches
	s.BacklogSeconds += o.BacklogSeconds
	s.PaddedBatches += o.PaddedBatches
	s.PaddedRows += o.PaddedRows
	if s.BatchSizes == nil {
		s.BatchSizes = make(map[int]int64, len(o.BatchSizes))
	}
	for k, v := range o.BatchSizes {
		s.BatchSizes[k] += v
	}
	for _, b := range o.Variants {
		if i, found := slices.BinarySearch(s.Variants, b); !found {
			s.Variants = slices.Insert(s.Variants, i, b)
		}
	}
	s.Devices = append(s.Devices, o.Devices...)
	s.SimMakespan = max(s.SimMakespan, o.SimMakespan)
	if s.PriorityLatencies == nil {
		s.PriorityLatencies = make(map[Priority][]float64, len(o.PriorityLatencies))
	}
	for pri, w := range o.PriorityLatencies {
		s.PriorityLatencies[pri] = append(s.PriorityLatencies[pri], w...)
	}
	if s.Stages == nil {
		s.Stages = make(map[Priority]StageBreakdown, len(o.Stages))
	}
	for pri, b := range o.Stages {
		merged := s.Stages[pri]
		merged.Add(b)
		s.Stages[pri] = merged
	}
}

// splitStages decomposes one request's end-to-end latency into
// formation / queue / execute stage durations whose float64 sum
// ((f+q)+e) reproduces lat bit-exactly. The raw inputs already sum to
// lat in exact arithmetic (lat = doneAt − arrival, formation = batch
// arrival − arrival, queue = start − batch arrival, execute = doneAt −
// start), but each subtraction rounds independently, so the execute
// term — the largest — absorbs the rounding residue; the loop
// converges in one or two steps and cascades to the other terms only
// in the degenerate all-zero cases.
func splitStages(lat, formation, queue float64) (f, q, e float64) {
	f, q = formation, queue
	if f < 0 {
		f = 0
	}
	if q < 0 {
		q = 0
	}
	e = lat - f - q
	if e < 0 {
		e = 0
	}
	for i := 0; i < 8; i++ {
		s := f + q + e
		if s == lat {
			break
		}
		diff := lat - s
		switch {
		case e+diff >= 0:
			e += diff
		case q+diff >= 0:
			q += diff
		default:
			f += diff
		}
	}
	return f, q, e
}

// Throughput returns served requests per simulated second.
func (s Stats) Throughput() float64 {
	if s.SimMakespan <= 0 {
		return 0
	}
	return float64(s.Requests) / s.SimMakespan
}

// LatencyPercentile returns the p-th percentile (0..100) of request
// latencies, in simulated seconds, ranking every PriorityLatencies
// window together by the nearest-rank method (ceil(p/100*n)), so small
// sample windows do not understate the tail.
func (s Stats) LatencyPercentile(p float64) float64 {
	var all []float64
	for _, w := range s.PriorityLatencies {
		all = append(all, w...)
	}
	return obs.NearestRank(all, p)
}

// PriorityPercentile is LatencyPercentile restricted to one priority
// class (0 when that class has served no requests).
func (s Stats) PriorityPercentile(pri Priority, p float64) float64 {
	return obs.NearestRank(s.PriorityLatencies[pri], p)
}

// latWindow is a bounded ring of latency samples.
type latWindow struct {
	samples []float64
	next    int // overwrite position once samples is full
}

func (w *latWindow) add(v float64) {
	if len(w.samples) < latencyWindow {
		w.samples = append(w.samples, v)
		return
	}
	w.samples[w.next] = v
	w.next = (w.next + 1) % latencyWindow
}

func (w *latWindow) snapshot() []float64 {
	if len(w.samples) == 0 {
		return nil
	}
	return append([]float64(nil), w.samples...)
}
