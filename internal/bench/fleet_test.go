package bench

import (
	"testing"

	"bolt/internal/gpu"
)

// TestFleetExperimentGates is the fleet experiment's acceptance gate:
// no arm loses a request, the scripted kill is retried and the scripted
// stall is hedged with the caller-observed p99 inside the budget, the
// replica grown mid-run compiles measurement-free, and the autoscaler
// records at least one grow and one shrink on the bursty trace.
func TestFleetExperimentGates(t *testing.T) {
	s := NewQuickSuite(gpu.T4())
	s.FleetRequests = 32 // 4 full buckets: affordable under `go test`
	art := s.runFleet()

	if len(art.Rows) != 3 {
		t.Fatalf("got %d arms, want 3", len(art.Rows))
	}
	healthy, kill, stall := art.Rows[0], art.Rows[1], art.Rows[2]
	for _, r := range art.Rows {
		if r.Requests != int64(art.Requests) {
			t.Errorf("%s routed %d requests, want %d", r.Arm, r.Requests, art.Requests)
		}
		if r.Delivered != r.Requests {
			t.Errorf("%s delivered %d of %d routed requests — requests were lost", r.Arm, r.Delivered, r.Requests)
		}
		if r.DeliveredErrors != 0 {
			t.Errorf("%s delivered %d errors, want 0", r.Arm, r.DeliveredErrors)
		}
	}
	if healthy.FailedBatches != 0 || healthy.Retries != 0 || healthy.HedgesIssued != 0 {
		t.Errorf("healthy arm saw failures (failed %d, retries %d, hedges %d), want none",
			healthy.FailedBatches, healthy.Retries, healthy.HedgesIssued)
	}
	if kill.FailedBatches < 1 || kill.Retries < 1 {
		t.Errorf("kill arm: %d failed batches, %d retries, want >= 1 of each", kill.FailedBatches, kill.Retries)
	}
	if stall.HedgesIssued < 1 || stall.HedgesWon < 1 {
		t.Errorf("stall arm: %d hedges issued, %d won, want >= 1 of each", stall.HedgesIssued, stall.HedgesWon)
	}
	for _, r := range []fleetArmRow{kill, stall} {
		if r.P99VsHealthy > fleetP99Budget {
			t.Errorf("%s p99 is %.2fx healthy (%.1f us vs %.1f us), budget %.1fx",
				r.Arm, r.P99VsHealthy, r.P99Us, healthy.P99Us, fleetP99Budget)
		}
	}

	if art.MeasurementsInitial <= 0 {
		t.Errorf("initial replicas spent %d profiler measurements, want > 0 (fresh log must measure)", art.MeasurementsInitial)
	}
	if art.MeasurementsGrownReplica != 0 {
		t.Errorf("replica grown mid-run spent %d profiler measurements, want 0 (shared-tunelog warm-up)", art.MeasurementsGrownReplica)
	}
	if art.GrownReplicaRequests <= 0 {
		t.Errorf("grown replica served %d requests, want > 0", art.GrownReplicaRequests)
	}

	if art.BurstyGapCV2 <= 1 {
		t.Errorf("bursty trace gap CV^2 = %.2f, want > 1 (must be burstier than Poisson)", art.BurstyGapCV2)
	}
	if art.AutoscaleGrowEvents < 1 || art.AutoscaleShrinkEvents < 1 {
		t.Errorf("autoscaler recorded %d grow / %d shrink events, want >= 1 each",
			art.AutoscaleGrowEvents, art.AutoscaleShrinkEvents)
	}
}
