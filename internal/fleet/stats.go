package fleet

import (
	"bolt/internal/serve"
)

// ReplicaStats is one replica's share of the fleet's work: its full
// serve.Stats plus the router- and autoscaler-level counters charged
// to it. Every counter sums exactly to the corresponding Stats
// aggregate across the Replicas slice (retired replicas included —
// their served traffic stays counted).
type ReplicaStats struct {
	// Replica is the replica's stable id.
	Replica int
	// Live reports whether the replica is currently in the routing set.
	Live bool
	// Grown reports that the replica was added at runtime (autoscaler
	// or Grow) rather than configured at New.
	Grown bool
	// Serve is the replica's own serving snapshot (per-device rows
	// included).
	Serve serve.Stats
	// HedgesIssued counts hedges placed because an attempt on this
	// replica looked at risk; HedgesWon counts hedged duplicates this
	// replica won; HedgesCanceled counts this replica's attempts
	// drained as losers.
	HedgesIssued   int64
	HedgesWon      int64
	HedgesCanceled int64
	// Retries counts follow-up attempts triggered by this replica's
	// failed batches.
	Retries int64
	// GrowEvents/ShrinkEvents record this replica's autoscale
	// transitions (1 when it was grown / shrunk).
	GrowEvents   int64
	ShrinkEvents int64
}

// Stats is a fleet snapshot: per-replica rows plus their exact
// aggregate. Serve is the serve.Stats.Add of every replica's snapshot
// (a hedged request that ran on two replicas counts once per replica —
// the aggregate is work done, not requests routed; Routed/Delivered
// count the caller-visible story): Serve.SimMakespan is the largest
// replica makespan, Serve.BacklogSeconds the fleet-wide modeled
// backlog and Serve.Variants the union of the replicas' buckets.
type Stats struct {
	Replicas []ReplicaStats
	Serve    serve.Stats

	HedgesIssued   int64
	HedgesWon      int64
	HedgesCanceled int64
	Retries        int64
	GrowEvents     int64
	ShrinkEvents   int64

	// Routed counts requests the fleet accepted; Delivered counts
	// results handed back (equal once drained — no request is lost),
	// and DeliveredErrors counts those delivered with an error.
	Routed          int64
	Delivered       int64
	DeliveredErrors int64
}

// Stats snapshots the fleet. Counters mutated while the snapshot is
// taken may land on either side; quiesce (or Close) first when exact
// sums matter.
func (f *Fleet) Stats() Stats {
	out, reps := f.routerStats()
	// Per-replica serve snapshots lock each server; taken outside f.mu
	// so a slow replica cannot stall routing.
	for i, r := range reps {
		st := r.srv.Stats()
		out.Replicas[i].Serve = st
		out.Serve.Add(st)
	}
	return out
}

// routerStats is the router's half of Stats: the per-replica rows
// (Serve left zero) with their router counters summed into the fleet
// totals, plus the replicas the rows describe, in row order.
func (f *Fleet) routerStats() (Stats, []*replica) {
	f.mu.Lock()
	defer f.mu.Unlock()
	reps := append([]*replica(nil), f.replicas...)
	out := Stats{
		Replicas:        make([]ReplicaStats, len(reps)),
		Routed:          f.routed,
		Delivered:       f.delivered,
		DeliveredErrors: f.deliveredErrs,
	}
	for i, r := range reps {
		out.Replicas[i] = ReplicaStats{
			Replica:        r.id,
			Live:           r.live,
			Grown:          r.grown,
			HedgesIssued:   r.hedgesIssued,
			HedgesWon:      r.hedgesWon,
			HedgesCanceled: r.hedgesCanceled,
			Retries:        r.retries,
			GrowEvents:     r.growEvents,
			ShrinkEvents:   r.shrinkEvents,
		}
		out.HedgesIssued += r.hedgesIssued
		out.HedgesWon += r.hedgesWon
		out.HedgesCanceled += r.hedgesCanceled
		out.Retries += r.retries
		out.GrowEvents += r.growEvents
		out.ShrinkEvents += r.shrinkEvents
	}
	return out, reps
}
