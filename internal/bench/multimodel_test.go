package bench

import (
	"reflect"
	"testing"
)

// TestMultiModelFairnessAndPrioritySLO is the multimodel experiment's
// acceptance gate: under a mixed-priority flood over two tenants
// sharing one worker pool, no tenant starves (every model's throughput
// is positive) and the high-priority aggregate p99 does not exceed the
// bulk p99 — both deterministic claims on the simulated clocks.
func TestMultiModelFairnessAndPrioritySLO(t *testing.T) {
	s := quick()
	s.MultiModelRequests = 16
	art := s.runMultiModel()
	if len(art.Rows) != 2 {
		t.Fatalf("multimodel experiment has %d rows, want 2 tenants", len(art.Rows))
	}
	for _, r := range art.Rows {
		if r.Requests != int64(art.RequestsPerModel) {
			t.Errorf("tenant %s served %d requests, want %d", r.Model, r.Requests, art.RequestsPerModel)
		}
		if r.Throughput <= 0 {
			t.Errorf("tenant %s starved: throughput %g", r.Model, r.Throughput)
		}
		if r.MakespanUs <= 0 {
			t.Errorf("tenant %s has no simulated makespan", r.Model)
		}
		if r.HighP99Us <= 0 || r.BulkP99Us <= 0 {
			t.Errorf("tenant %s missing per-priority percentiles: %+v", r.Model, r)
		}
		if r.HighP99Us > r.BulkP99Us {
			t.Errorf("tenant %s: high p99 %.1fus exceeds bulk p99 %.1fus", r.Model, r.HighP99Us, r.BulkP99Us)
		}
	}
	if art.HighP99Us > art.BulkP99Us {
		t.Errorf("aggregate high p99 %.1fus exceeds bulk p99 %.1fus", art.HighP99Us, art.BulkP99Us)
	}
	if art.ThroughputRatio <= 0 {
		t.Errorf("throughput ratio %g, want > 0", art.ThroughputRatio)
	}
}

// TestMultiModelDeterministic pins the experiment's reproducibility:
// with the variant compiles gated until the whole stream is queued,
// two runs on the quick suite produce the same result, field for field.
func TestMultiModelDeterministic(t *testing.T) {
	a, b := quick().runMultiModel(), quick().runMultiModel()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two multimodel runs differ:\n%+v\n%+v", a, b)
	}
	checkGolden(t, "multimodel", a)
}
