package fleet

import (
	"bolt/internal/obs"
)

// This file is the fleet's metrics exposition: every replica fills
// the same obs.Registry (counters, pending requests and backlog add,
// gauges keep their maximum, histograms merge — so the per-stage
// latency histograms aggregate across the whole fleet), then the
// router's own counters are layered on top. Per-worker rows share worker indices across replicas and
// therefore add; the replica-resolved story lives in Stats.

// Snapshot renders the fleet's metrics as a deterministic text
// exposition: the merged replica expositions (request/batch counters,
// stage-latency histograms, per-priority breakdowns) plus the
// fleet-level routing counters (routed/delivered, hedges, retries,
// autoscale events). It works whether or not tracing is enabled.
func (f *Fleet) Snapshot() string {
	reg := obs.NewRegistry()
	f.FillRegistry(reg)
	return reg.Render()
}

// FillRegistry adds the fleet's metric rows into reg: each replica's
// serve exposition merged together, plus the router totals Stats
// reports.
func (f *Fleet) FillRegistry(reg *obs.Registry) {
	st, reps := f.routerStats()
	// Replica snapshots lock each server; taken outside f.mu so a slow
	// replica cannot stall routing.
	for _, r := range reps {
		r.srv.FillRegistry(reg)
	}
	live := 0
	for _, r := range st.Replicas {
		if r.Live {
			live++
		}
	}
	reg.Counter("fleet_routed_total", nil, float64(st.Routed))
	reg.Counter("fleet_delivered_total", nil, float64(st.Delivered))
	reg.Counter("fleet_delivered_errors_total", nil, float64(st.DeliveredErrors))
	reg.Counter("fleet_hedges_issued_total", nil, float64(st.HedgesIssued))
	reg.Counter("fleet_hedges_won_total", nil, float64(st.HedgesWon))
	reg.Counter("fleet_hedges_canceled_total", nil, float64(st.HedgesCanceled))
	reg.Counter("fleet_retries_total", nil, float64(st.Retries))
	reg.Counter("fleet_grow_events_total", nil, float64(st.GrowEvents))
	reg.Counter("fleet_shrink_events_total", nil, float64(st.ShrinkEvents))
	reg.Gauge("fleet_live_replicas", nil, float64(live))
}
