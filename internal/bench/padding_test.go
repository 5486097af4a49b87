package bench

import (
	"reflect"
	"testing"

	"bolt/internal/gpu"
)

// TestPaddingDeterministicAndGuarded is the padding experiment's
// acceptance gate: identical suites produce bit-identical results
// (gated compiles make batch composition independent of host
// scheduling), the continuous+padded row actually pads while the
// single-bucket guard never does, the strict baseline runs nothing but
// full largest buckets, and continuous+padded dispatch serves at least
// the strict throughput with a p99 within 1.1x of strict.
func TestPaddingDeterministicAndGuarded(t *testing.T) {
	run := func() paddingResult {
		// The quick stream (6 full buckets): at 3 the underfull tail is
		// a large enough share of the makespan to cost padding its gain.
		return NewQuickSuite(gpu.T4()).runPadding()
	}
	art := run()
	if again := run(); !reflect.DeepEqual(art, again) {
		t.Fatalf("padding experiment is not deterministic:\nfirst:  %+v\nsecond: %+v", art, again)
	}
	checkGolden(t, "padding", art)

	if art.PaddedBatches <= 0 {
		t.Errorf("continuous+padded row never padded (padded_batches %d); the padded path went unexercised", art.PaddedBatches)
	}
	if art.GuardPaddedBatches != 0 {
		t.Errorf("single-bucket guard padded %d batches, must short-circuit to 0", art.GuardPaddedBatches)
	}
	if art.P99Ratio > 1.1 {
		t.Errorf("continuous+padded p99 is %.2fx strict, want <= 1.1x", art.P99Ratio)
	}
	if art.ThroughputGain < 1.0 {
		t.Errorf("continuous+padded throughput is %.4fx strict, want >= 1.0x", art.ThroughputGain)
	}

	for _, row := range art.Rows {
		var rows int64
		for b, n := range row.BatchSizes {
			rows += int64(b) * n
			if b > 1 && row.Policy == "single-bucket guard" {
				t.Errorf("guard row ran a batch of %d on a {1} ladder", b)
			}
			if b != 8 && row.Policy == "strict buckets" {
				t.Errorf("strict row ran a partial batch of %d; full visibility should give full buckets only", b)
			}
		}
		// Padded rows are zero-filled filler, so the histogram counts
		// them on top of the real requests.
		if rows != row.Requests+row.PaddedRows {
			t.Errorf("%s: batch-size histogram holds %d rows, want %d requests + %d padded",
				row.Policy, rows, row.Requests, row.PaddedRows)
		}
		if (row.PaddedBatches > 0) != (row.PaddedRows > 0) {
			t.Errorf("%s: padded_batches %d inconsistent with padded_rows %d",
				row.Policy, row.PaddedBatches, row.PaddedRows)
		}
	}
}
