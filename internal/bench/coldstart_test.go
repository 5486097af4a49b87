package bench

import (
	"reflect"
	"testing"

	"bolt/internal/gpu"
)

// TestColdstartDeterministicAndBounded is the coldstart experiment's
// acceptance gate: identical suites produce bit-identical results
// (noise-free measurements, seeded model, plans frozen before the
// pool), the top-k arm measures within its per-workload budget and
// tunes at <= 0.5x the full sweep, the predict-only arm measures
// nothing, and both guided arms pick kernels within 1.05x of the full
// sweep's choices.
func TestColdstartDeterministicAndBounded(t *testing.T) {
	run := func() coldstartResult {
		return NewQuickSuite(gpu.T4()).runColdstart()
	}
	art := run()
	if again := run(); !reflect.DeepEqual(art, again) {
		t.Fatalf("coldstart experiment is not deterministic:\nfirst:  %+v\nsecond: %+v", art, again)
	}

	if len(art.Devices) != 2 {
		t.Fatalf("want T4 and A100 device sections, got %d", len(art.Devices))
	}
	for _, d := range art.Devices {
		if len(d.Rows) != 3 {
			t.Fatalf("%s: want full/top-k/predict arms, got %d rows", d.Device, len(d.Rows))
		}
		full, topk, predict := d.Rows[0], d.Rows[1], d.Rows[2]

		if full.Measurements != full.Enumerated || full.Measurements == 0 {
			t.Errorf("%s: full sweep must measure everything: %d of %d",
				d.Device, full.Measurements, full.Enumerated)
		}
		if topk.Measurements == 0 || topk.Measurements > topk.Budget*topk.ProfiledWorkloads {
			t.Errorf("%s: top-k measured %d candidates over %d workloads, budget %d each",
				d.Device, topk.Measurements, topk.ProfiledWorkloads, topk.Budget)
		}
		if topk.TuningVsFull > 0.5 {
			t.Errorf("%s: top-k tuned at %.2fx the full sweep, want <= 0.5x",
				d.Device, topk.TuningVsFull)
		}
		if predict.Measurements != 0 || predict.TuningSeconds != 0 {
			t.Errorf("%s: predict-only arm measured (%d measurements, %.3fs)",
				d.Device, predict.Measurements, predict.TuningSeconds)
		}
		if predict.PredictedWorkloads != predict.ProfiledWorkloads || predict.ProfiledWorkloads == 0 {
			t.Errorf("%s: predict-only resolved %d of %d workloads via the trust gate",
				d.Device, predict.PredictedWorkloads, predict.ProfiledWorkloads)
		}
		for _, r := range []coldstartRow{topk, predict} {
			if r.SlowdownVsFull > 1.05 {
				t.Errorf("%s/%s: chosen kernels run at %.4fx the full sweep's, want <= 1.05x",
					d.Device, r.Arm, r.SlowdownVsFull)
			}
		}
	}
}
