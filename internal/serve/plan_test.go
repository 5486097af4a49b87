package serve

import (
	"math"
	"slices"
	"testing"
	"time"
)

// planTenant is a tenant on a one-class pool whose price table is
// hand-built: costs[r] is rung r's modeled batch cost.
func planTenant(ladder []int, pad, continuous bool, costs ...float64) *tenant {
	t := &tenant{buckets: ladder, pad: pad, continuous: continuous, prices: newPriceTable(len(ladder), 1)}
	for r, c := range costs {
		t.prices.resolve(r, 0, c)
	}
	return t
}

// arrivals returns one fresh queued row per simulated arrival time.
func arrivals(at ...float64) []*request {
	rows := make([]*request, len(at))
	for i, a := range at {
		rows[i] = &request{simArrival: a}
	}
	return rows
}

// TestPlan drives the pure planner directly — no Server, no goroutine,
// no compile — over one idle T4 worker. The ladder's costs are
// launch-bound: a bucket-8 run costs less than two bucket-1 runs.
func TestPlan(t *testing.T) {
	launchBound := []float64{10, 11, 13, 17}
	ladder := []int{1, 2, 4, 8}

	// Expired rows drain first: the planner sees them in drain order,
	// so a two-row batch takes the expired normal and bulk rows ahead
	// of the fresh high one.
	now := time.Now()
	fresh, expired := now.Add(time.Hour), now.Add(-time.Millisecond)
	queued := planTenant([]int{1, 2}, false, false, 10, 11)
	n1, b1 := &request{priority: PriorityNormal, deadline: expired}, &request{priority: PriorityBulk, deadline: expired}
	queued.queues[PriorityHigh] = []*request{{priority: PriorityHigh, deadline: fresh}}
	queued.queues[PriorityNormal] = []*request{n1, {priority: PriorityNormal, deadline: fresh}}
	queued.queues[PriorityBulk] = []*request{b1}

	cases := []struct {
		name string
		t    *tenant
		rows []*request
		want dispatchPlan
		mode string
	}{
		{"strict ladder", planTenant(ladder, false, false, launchBound...),
			arrivals(0, 0, 0, 0, 0, 0, 0), dispatchPlan{take: 4, bucket: 4}, "strict"},
		{"padding win", planTenant([]int{1, 2}, true, false, 4, 1),
			arrivals(0), dispatchPlan{take: 1, bucket: 2}, "padded"},
		{"equal-cost tie stays strict", planTenant([]int{1, 2}, true, false, 1, 1),
			arrivals(0), dispatchPlan{take: 1, bucket: 1}, "padded"},
		// Every simultaneous row's marginal cost is below a single-row
		// launch, so all five are absorbed, and one padded bucket-8 run
		// (17) beats the strict 4+1 chain (13+10).
		{"continuous absorption", planTenant(ladder, true, true, launchBound...),
			arrivals(0, 0, 0, 0, 0), dispatchPlan{take: 5, bucket: 8}, "continuous+padded"},
		// Without padding the chain cost plateaus at a rung boundary: the
		// third row gains exactly zero and is absorbed, or formation would
		// wedge at the first rung.
		{"continuous absorbs zero-gain rows", planTenant(ladder, false, true, launchBound...),
			arrivals(0, 0, 0, 0), dispatchPlan{take: 4, bucket: 4}, "continuous"},
		// A third row 1000 s late would make the two formed rows wait far
		// longer than the launch it saves.
		{"continuous stops on a late arrival", planTenant(ladder, false, true, launchBound...),
			arrivals(0, 0, 1000), dispatchPlan{take: 2, bucket: 2}, "continuous"},
		{"expired rows first", queued,
			drainOrder(nil, queued, 2, now), dispatchPlan{take: 2, bucket: 2}, "strict"},
		{"one-rung ladder", planTenant([]int{1}, true, true, 10),
			arrivals(0, 0, 0), dispatchPlan{take: 1, bucket: 1}, "continuous+padded"},
		// The bucket-4 variant failed to compile: padding onto it never
		// wins, and formation stops short of needing it.
		{"+Inf rung falls back to strict", planTenant([]int{1, 2, 4}, true, false, 10, 11, math.Inf(1)),
			arrivals(0, 0, 0), dispatchPlan{take: 2, bucket: 2}, "padded"},
		{"+Inf rung stops formation", planTenant([]int{1, 2, 4}, true, true, 10, 11, math.Inf(1)),
			arrivals(0, 0, 0), dispatchPlan{take: 2, bucket: 2}, "continuous+padded"},
	}
	p := newPool(t4s(1))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows := slices.Clone(tc.rows)
			got, pt := plan(tc.t, rows, p, false)
			if got != tc.want {
				t.Errorf("plan = %+v, want %+v", got, tc.want)
			}
			if got.take > got.bucket || got.take > len(rows) {
				t.Errorf("plan %+v takes more than its bucket or the %d rows", got, len(rows))
			}
			if pt.mode != tc.mode {
				t.Errorf("mode %q, want %q", pt.mode, tc.mode)
			}
			// Tracing prices the strict chain too but never changes the
			// decision, and planning mutates none of its inputs.
			if traced, _ := plan(tc.t, rows, p, true); traced != got {
				t.Errorf("traced plan %+v differs from untraced %+v", traced, got)
			}
			if !slices.Equal(rows, tc.rows) || p.sched[0] != 0 {
				t.Error("plan mutated its rows or the pool's finish times")
			}
		})
	}
	if got := take(queued, drainOrder(nil, queued, 2, now)); !slices.Equal(got, []*request{n1, b1}) {
		t.Errorf("take removed %v, want the expired normal and bulk rows", got)
	}
}
