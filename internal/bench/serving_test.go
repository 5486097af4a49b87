package bench

import (
	"reflect"
	"testing"

	"bolt/internal/obs"
)

// TestServingScalesWithWorkers is the serving experiment's acceptance
// gate: aggregate throughput must scale >1.5x from 1 to 4 workers (it
// is deterministic on the simulated clocks, so the floor is safe),
// batching must actually coalesce, and the pooled executor's
// steady-state allocs must not balloon under concurrency. A second run
// with a tracer attached must reproduce every modeled field: tracing
// does not perturb the experiment.
func TestServingScalesWithWorkers(t *testing.T) {
	s := quick()
	s.ServingRequests = 32
	art := s.runServing()
	if len(art.Rows) != 4 {
		t.Fatalf("serving experiment has %d rows, want 4", len(art.Rows))
	}
	if art.WorkerScaling1To4 <= 1.5 {
		t.Errorf("throughput scaling 1->4 workers = %.2fx, want > 1.5x", art.WorkerScaling1To4)
	}
	coalesced := false
	for _, r := range art.Rows {
		if r.Throughput <= 0 || r.P50Us <= 0 || r.P99Us < r.P50Us {
			t.Errorf("malformed row: %+v", r)
		}
		if r.MaxBucket == 8 && r.Batches[8] > 0 {
			coalesced = true
		}
	}
	if !coalesced {
		t.Error("no bucket-8 batch was ever dispatched")
	}
	if art.SingleCallerAllocsPerRun <= 0 {
		t.Errorf("single-caller allocs/run %.1f, want > 0", art.SingleCallerAllocsPerRun)
	}
	if art.ConcurrentCallersAllocsPerRun > 2*art.SingleCallerAllocsPerRun {
		t.Errorf("concurrent allocs/run %.1f exceeds 2x single-caller %.1f",
			art.ConcurrentCallersAllocsPerRun, art.SingleCallerAllocsPerRun)
	}
	modeled := art
	modeled.SingleCallerAllocsPerRun, modeled.ConcurrentCallersAllocsPerRun = 0, 0
	checkGolden(t, "serving", modeled)

	s.Trace = obs.NewTracer()
	traced := s.runServing()
	// The allocation counters are host-measured and vary run to run
	// with or without a tracer; every other field is modeled.
	traced.SingleCallerAllocsPerRun = art.SingleCallerAllocsPerRun
	traced.ConcurrentCallersAllocsPerRun = art.ConcurrentCallersAllocsPerRun
	if !reflect.DeepEqual(art, traced) {
		t.Errorf("tracing changed the modeled serving results:\nuntraced: %+v\ntraced:   %+v", art, traced)
	}
	for _, kind := range []string{"request", "enqueue", "plan", "compile", "dispatch", "execute", "deliver"} {
		if len(s.Trace.ByKind(kind)) == 0 {
			t.Errorf("traced run recorded no %q spans", kind)
		}
	}
}
