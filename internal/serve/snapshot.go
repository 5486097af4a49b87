package serve

import (
	"strconv"

	"bolt/internal/obs"
)

// This file is the server's metrics exposition: Snapshot renders the
// always-on counters and stage-latency histograms as sorted text (one
// metric row per line, Prometheus-style histogram rows), built from a
// fresh obs.Registry on each call. The counter, gauge, worker and
// stage-sum rows come from the same aggregate Stats that Server.Stats
// returns; only the histogram rows walk the tenants. FillRegistry
// exposes the same rows for aggregation — the fleet layer fills one
// registry from every replica, so counters add and histograms merge
// into a fleet-wide exposition.

// Snapshot renders the server's metrics as a deterministic text
// exposition: request/batch counters, per-worker device rows, the
// per-stage latency histograms (formation wait / queue wait / execute
// / deliver), the per-priority end-to-end latency histograms and
// stage sums. It reflects everything the server has ever served
// (undeployed tenants included) and works whether or not tracing is
// enabled.
func (s *Server) Snapshot() string {
	reg := obs.NewRegistry()
	s.FillRegistry(reg)
	return reg.Render()
}

// FillRegistry adds the server's metric rows into reg. Filling several
// servers into one registry aggregates them: counters add, gauges keep
// their maximum, histograms merge.
func (s *Server) FillRegistry(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()

	st := s.statsLocked()
	reg.Counter("requests_total", nil, float64(st.Requests))
	reg.Counter("batches_total", nil, float64(st.Batches))
	reg.Counter("failed_batches_total", nil, float64(st.FailedBatches))
	reg.Counter("evictions_total", nil, float64(st.Evictions))
	reg.Counter("padded_batches_total", nil, float64(st.PaddedBatches))
	reg.Counter("padded_rows_total", nil, float64(st.PaddedRows))
	reg.Gauge("pending_requests", nil, float64(s.pendingTotal))
	reg.Gauge("backlog_seconds", nil, st.BacklogSeconds)
	reg.Gauge("sim_makespan_seconds", nil, st.SimMakespan)
	for _, d := range st.Devices {
		wl := obs.L("worker", strconv.Itoa(d.Worker), "device", d.Device)
		reg.Counter("worker_batches_total", wl, float64(d.Batches))
		reg.Counter("worker_busy_seconds_total", wl, d.BusySeconds)
	}
	for pri, b := range st.Stages {
		pl := obs.L("priority", pri.String())
		reg.Counter("stage_requests_total", pl, float64(b.Count))
		reg.Counter("stage_formation_wait_seconds_total", pl, b.FormationWait)
		reg.Counter("stage_queue_wait_seconds_total", pl, b.QueueWait)
		reg.Counter("stage_execute_seconds_total", pl, b.Execute)
		reg.Counter("stage_deliver_seconds_total", pl, b.Deliver)
		reg.Counter("latency_seconds_total", pl, b.Latency)
	}

	hists := func(ts *tenantStats) {
		for stage, h := range ts.stageHist {
			if h.Count() > 0 {
				reg.Histogram("stage_seconds", obs.L("stage", stageNames[stage]), h)
			}
		}
		for _, pri := range priorityOrder {
			if h := ts.latHist[pri]; h.Count() > 0 {
				reg.Histogram("latency_seconds", obs.L("priority", pri.String()), h)
			}
		}
	}
	hists(&s.retired)
	for _, t := range s.order {
		hists(&t.stats)
	}
}
