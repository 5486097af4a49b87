package serve

import (
	"math"

	"bolt/internal/gpu"
)

// This file is the device pool: the scheduler's view of the worker
// topology, one worker per ServerOptions.Devices entry, each modeling
// that GPU. Workers that model the same device are grouped into one
// device class — they share compiled variants and modeled batch costs,
// since the tuning-log keys are device-scoped and a variant compiled
// for one T4 stream is exactly the variant every other T4 stream would
// compile. Dispatch is cost-aware earliest finish time (EFT): each
// ready batch is priced on every device class via the compiled
// variant's modeled batch cost, and goes to the worker whose modeled
// finish time (clock + cost) is smallest. Big buckets therefore
// gravitate to the fast device while small batches keep the slower
// streams busy, and the whole placement sequence is deterministic —
// the pool's finish-time model is advanced at dispatch under
// Server.mu, never read from the racy execution clocks.

// deviceClass is one group of same-device workers. Variants and batch
// costs are cached per class, not per worker.
type deviceClass struct {
	id  int
	dev *gpu.Device
}

// pool is the worker topology plus the scheduler's modeled finish time
// per worker. sched is guarded by Server.mu: the scheduler places and
// commits under it at dispatch, and the planner and the backlog probe
// read it under it. It never reads the workers' execution clocks:
// sched[w] leads the worker's clock (Server.workers[w].SimMakespan) by
// exactly the batches dispatched-but-not-finished, and the two converge
// to the same value because both advance by the same job costs in the
// same per-worker FIFO order.
type pool struct {
	devices []*gpu.Device // worker index -> device
	classes []deviceClass
	classOf []int     // worker index -> class id
	sched   []float64 // modeled finish time per worker (guarded by Server.mu)
}

// newPool groups one worker per device into device classes (by device
// name) in first-appearance order.
func newPool(devices []*gpu.Device) *pool {
	p := &pool{
		devices: devices,
		classOf: make([]int, len(devices)),
		sched:   make([]float64, len(devices)),
	}
	byName := make(map[string]int)
	for w, dev := range devices {
		id, ok := byName[dev.Name]
		if !ok {
			id = len(p.classes)
			byName[dev.Name] = id
			p.classes = append(p.classes, deviceClass{id: id, dev: dev})
		}
		p.classOf[w] = id
	}
	return p
}

// placement is one EFT decision.
type placement struct {
	worker int
	class  int
	finish float64 // modeled completion time of the batch on that worker
}

// place picks the earliest-finish-time worker for a batch that arrived
// at the given simulated time: finish(w) = max(sched[w], arrival) +
// costs[classOf[w]]. Ties prefer a class whose variant is already
// compiled (live[class]) — no point paying a compile on an equally
// fast device — and then the lowest worker index, so the sequence is
// deterministic. A class priced at +Inf (its variant failed to
// compile) is only chosen when every class is infinite, in which case
// worker 0 takes the batch and surfaces the compile error.
func (p *pool) place(costs []float64, live []bool, arrival float64) placement {
	return p.placeOn(p.sched, costs, live, arrival)
}

// placeOn is the placement rule over an explicit finish-time vector,
// so the padded-dispatch planner can simulate hypothetical placements
// on a scratch copy of sched without committing anything. A nil live
// treats every class as uncompiled (the tie-break then falls straight
// to the lowest worker index, which is all a what-if preview needs).
func (p *pool) placeOn(sched []float64, costs []float64, live []bool, arrival float64) placement {
	best := placement{worker: -1, finish: math.Inf(1)}
	for w, c := range p.classOf {
		start := sched[w]
		if arrival > start {
			start = arrival
		}
		finish := start + costs[c]
		switch {
		case best.worker < 0 || finish < best.finish:
			best = placement{worker: w, class: c, finish: finish}
		case finish == best.finish && live != nil && live[c] && !live[best.class]:
			best = placement{worker: w, class: c, finish: finish}
		}
	}
	return best
}

// previewFinish returns the modeled EFT completion of one hypothetical
// batch without committing it — what the padded-dispatch planner uses
// to price "run these rows padded on the larger bucket, now".
func (p *pool) previewFinish(costs []float64, arrival float64) float64 {
	return p.placeOn(p.sched, costs, nil, arrival).finish
}

// minSched returns the smallest modeled finish time across the pool —
// the first moment any worker frees up, which continuous batch
// formation uses as "when could this batch start".
func (p *pool) minSched() float64 {
	m := p.sched[0]
	for _, v := range p.sched[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// commit advances the scheduler's finish-time model for a placed
// batch. Skipped for unpriceable (failed-compile) batches, whose
// execution advances no clock either.
func (p *pool) commit(pl placement) {
	if !math.IsInf(pl.finish, 1) {
		p.sched[pl.worker] = pl.finish
	}
}
