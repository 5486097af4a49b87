package bench

import (
	"math"
	"reflect"
	"testing"

	"bolt/internal/gpu"
)

// TestHeteroDeterministicAndWins is the hetero experiment's acceptance
// gate: identical suites produce bit-identical results (the whole
// pipeline — Poisson stream, per-device compiles, EFT dispatch — is
// deterministic), the mixed pool beats 2x T4 on modeled makespan by
// more than 10 %, the A100's share of the mixed pool's batches tracks
// its speed advantage (clearly above parity, bounded by the peak-TFLOPS
// headroom), and per-device rows sum exactly to each pool's aggregate.
func TestHeteroDeterministicAndWins(t *testing.T) {
	run := func() heteroResult {
		s := NewQuickSuite(gpu.T4())
		s.HeteroRequests = 24 // 3 full buckets: affordable under `go test`
		return s.runHetero()
	}
	art := run()
	if again := run(); !reflect.DeepEqual(art, again) {
		t.Fatalf("hetero experiment is not deterministic:\nfirst:  %+v\nsecond: %+v", art, again)
	}
	checkGolden(t, "hetero", art)

	if art.HeteroSpeedup <= 1.1 {
		t.Errorf("1x T4 + 1x A100 makespan %.1f us did not beat 2x T4's %.1f us (speedup %.2fx, want > 1.1x)",
			art.MakespanHeteroUs, art.Makespan2T4Us, art.HeteroSpeedup)
	}
	if art.WorkShareRatio < 1.2 || art.WorkShareRatio > 1.5*art.PeakTFLOPSRatio {
		t.Errorf("A100 ran %.2fx the T4's batches in the mixed pool, want within [1.2, %.1f] (EFT must favor the fast device)",
			art.WorkShareRatio, 1.5*art.PeakTFLOPSRatio)
	}
	if art.ModeledSpeedRatio <= 1 || art.ModeledSpeedRatio > art.PeakTFLOPSRatio {
		t.Errorf("modeled speed ratio %.2f outside (1, peak %.1f]", art.ModeledSpeedRatio, art.PeakTFLOPSRatio)
	}
	for _, row := range art.Rows {
		if row.Requests != int64(art.Requests) {
			t.Errorf("%s served %d requests, want %d", row.Pool, row.Requests, art.Requests)
		}
		var batches int64
		share := 0.0
		for _, d := range row.Devices {
			batches += d.Batches
			share += d.UtilizationShare
		}
		if batches != row.Batches {
			t.Errorf("%s per-device batches sum to %d, aggregate %d", row.Pool, batches, row.Batches)
		}
		if math.Abs(share-1) > 1e-9 {
			t.Errorf("%s utilization shares sum to %g, want 1", row.Pool, share)
		}
	}
}
