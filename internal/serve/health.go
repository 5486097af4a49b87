package serve

import (
	"math"
	"time"
)

// This file is the server's health surface for the fleet layer above
// it: a cheap modeled-backlog probe (what a router needs to pick the
// least-loaded replica without reaching into the scheduler) and a
// fault hook (what a failure injector needs to kill or stall one
// worker mid-stream without the server growing chaos logic of its
// own).

// BatchFault is one fault decision for one dispatched batch, returned
// by ServerOptions.Fault. The zero value is healthy: the batch runs
// normally.
type BatchFault struct {
	// Err, when non-nil, fails the batch: execution is skipped and
	// every request in it is answered with this error (counted in
	// Stats.FailedBatches). The batch's modeled cost still advances the
	// worker's clock — a dead device stream was scheduled and must stay
	// accounted, or the EFT model would bias every later placement.
	Err error
	// StallSimSeconds, when > 0, advances the worker's simulated clock
	// by that much on top of the batch cost — a modeled device stall
	// (preemption, thermal throttle, a hung kernel) that inflates this
	// batch's latency and every later batch's start on this worker.
	StallSimSeconds float64
	// StallHostDelay, when > 0, blocks the worker goroutine for that
	// host duration before the batch runs — the wall-clock face of the
	// stall, which is what hedged requests race against.
	StallHostDelay time.Duration
}

// FaultHook is consulted once per dispatched batch with the executing
// worker's index, before the batch runs. It is called from worker
// goroutines concurrently, so implementations must be safe for
// concurrent use. A nil hook (the default) means no faults.
type FaultHook func(worker int) BatchFault

// BacklogSeconds is the modeled EFT backlog of this server: the
// simulated seconds of work that is accepted but not yet finished.
// It is the sum of
//
//   - in-flight work: per worker, the pool's committed finish time
//     minus the worker's execution clock (the batches dispatched but
//     not yet retired — exactly the gap the pool's finish-time model
//     maintains), and
//   - queued work: per tenant, the modeled cost of draining its queued
//     rows (a request counts from the moment InferTo returns) as a
//     greedy chain of exact buckets, priced with the cheapest class's
//     cost from the same price table EFT dispatch uses (unpriced
//     rungs — cold tenants whose pricing compiles are still in
//     flight — contribute zero rather than blocking the probe).
//
// The probe is cheap (O(workers + queued rows), one lock) and is what
// a fleet router uses to place each request on the least-loaded
// replica; Stats carries the same value as Stats.BacklogSeconds.
func (s *Server) BacklogSeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backlogLocked()
}

// backlogLocked computes the modeled backlog (caller holds s.mu).
func (s *Server) backlogLocked() float64 {
	b := 0.0
	for w, f := range s.pool.sched {
		if d := f - s.workers[w].SimMakespan; d > 0 {
			b += d
		}
	}
	for _, t := range s.order {
		for r := range chain(t.buckets, t.pending) {
			if c := t.prices.min[r]; !math.IsInf(c, 1) {
				b += c
			}
		}
	}
	return b
}
