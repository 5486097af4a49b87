package serve

import (
	"strconv"

	"bolt/internal/obs"
)

// This file is the server's metrics exposition: Snapshot renders the
// always-on counters and stage-latency histograms as sorted text (one
// metric row per line, Prometheus-style histogram rows), built from a
// fresh obs.Registry on each call. FillRegistry exposes the same rows
// for aggregation — the fleet layer fills one registry from every
// replica, so counters add and histograms merge into a fleet-wide
// exposition.

// Snapshot renders the server's metrics as a deterministic text
// exposition: request/batch counters, per-worker device rows, the
// per-stage latency histograms (formation wait / queue wait / execute
// / deliver), per-priority stage sums, and histogram-backed
// end-to-end latency percentiles. It reflects everything the server
// has ever served (undeployed tenants included) and works whether or
// not tracing is enabled.
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

	// One lifetime accumulator: retired tenants plus the live ones.
	var reqs, batches, failed, evict, padB, padR int64
	addCounters := func(ts *tenantStats) {
		reqs += ts.requests
		batches += ts.batches
		failed += ts.failedBatches
		evict += ts.evictions
		padB += ts.paddedBatches
		padR += ts.paddedRows
	}
	addCounters(&s.retired)
	for _, t := range s.order {
		addCounters(&t.stats)
	}
	reg.Counter("requests_total", nil, float64(reqs))
	reg.Counter("batches_total", nil, float64(batches))
	reg.Counter("failed_batches_total", nil, float64(failed))
	reg.Counter("evictions_total", nil, float64(evict))
	reg.Counter("padded_batches_total", nil, float64(padB))
	reg.Counter("padded_rows_total", nil, float64(padR))
	reg.Gauge("pending_requests", nil, float64(s.pendingTotal))
	reg.Gauge("backlog_seconds", nil, s.backlogLocked())
	var makespan float64
	for w, c := range s.clocks {
		if c > makespan {
			makespan = c
		}
		wl := obs.L("worker", strconv.Itoa(w), "device", s.pool.devices[w].Name)
		reg.Counter("worker_batches_total", wl, float64(s.workerBatches[w]))
		reg.Counter("worker_busy_seconds_total", wl, s.workerBusy[w])
	}
	reg.Gauge("sim_makespan_seconds", nil, makespan)

	each := func(fn func(ts *tenantStats)) {
		fn(&s.retired)
		for _, t := range s.order {
			fn(&t.stats)
		}
	}
	for stage := 0; stage < numStages; stage++ {
		each(func(ts *tenantStats) {
			if ts.stageHist[stage].Count() > 0 {
				reg.Histogram("stage_seconds", obs.L("stage", stageNames[stage]), ts.stageHist[stage])
			}
		})
	}
	for _, pri := range priorityOrder {
		pl := obs.L("priority", pri.String())
		each(func(ts *tenantStats) {
			if ts.latHist[pri].Count() > 0 {
				reg.Histogram("latency_seconds", pl, ts.latHist[pri])
			}
			b := ts.stages[pri]
			if b.Count == 0 {
				return
			}
			reg.Counter("stage_requests_total", pl, float64(b.Count))
			reg.Counter("stage_formation_wait_seconds_total", pl, b.FormationWait)
			reg.Counter("stage_queue_wait_seconds_total", pl, b.QueueWait)
			reg.Counter("stage_execute_seconds_total", pl, b.Execute)
			reg.Counter("stage_deliver_seconds_total", pl, b.Deliver)
			reg.Counter("latency_seconds_total", pl, b.Latency)
		})
	}
}
