package serve

import (
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bolt/internal/gpu"
	"bolt/internal/rt"
)

// costLocked reads a ladder bucket's cheapest-class price the way the
// backlog probe prices queued rows.
func costLocked(s *Server, model string, bucket int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	tn := s.tenants[model]
	return tn.prices.min[slices.Index(tn.buckets, bucket)]
}

// TestPriceTableResolution pins the price table on a two-class pool:
// a cold rung reads unpriced on every class, warmed rungs are priced
// on both classes (the cheapest class beside them), a failed compile
// resolves its rung at +Inf — distinguishable from unpriced — and a
// Warm of off-ladder buckets compiles them without growing or indexing
// past the table.
func TestPriceTableResolution(t *testing.T) {
	s := NewServer(ServerOptions{Devices: []*gpu.Device{gpu.T4(), gpu.A100()}})
	defer s.Close()
	failing := func(dev *gpu.Device, batch int) (*rt.Module, error) {
		if batch == 4 {
			return nil, errors.New("boom")
		}
		return fakeVariant(dev, batch)
	}
	if err := s.Deploy("m", failing, DeployOptions{Buckets: []int{1, 2, 4}}); err != nil {
		t.Fatal(err)
	}
	rung := func(r int) (cost []float64, cheapest float64, priced bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		p := &s.tenants["m"].prices
		return slices.Clone(p.cost[r]), p.min[r], p.priced(r)
	}
	for r := range 3 {
		cost, cheapest, priced := rung(r)
		if priced || !math.IsNaN(cost[0]) || !math.IsNaN(cost[1]) || !math.IsInf(cheapest, 1) {
			t.Errorf("cold rung %d: costs %v, cheapest %g, priced %v; want unpriced", r, cost, cheapest, priced)
		}
	}
	if err := s.Warm("m", 1, 3, 4, 8); err == nil || !strings.Contains(err.Error(), "bucket 4") {
		t.Fatalf("Warm = %v, want the bucket-4 compile errors", err)
	}
	cost, cheapest, priced := rung(0)
	if !priced || cost[1] >= cost[0] || cheapest != cost[1] {
		t.Errorf("warmed rung 0: costs %v, cheapest %g, priced %v; want both classes priced, the A100 cheapest", cost, cheapest, priced)
	}
	if cost, cheapest, priced := rung(1); priced || !math.IsInf(cheapest, 1) {
		t.Errorf("unwarmed rung 1: costs %v, cheapest %g, priced %v; want unpriced", cost, cheapest, priced)
	}
	if cost, cheapest, priced := rung(2); !priced || !math.IsInf(cost[0], 1) || !math.IsInf(cost[1], 1) || !math.IsInf(cheapest, 1) {
		t.Errorf("failed rung 2: costs %v, cheapest %g, priced %v; want resolved at +Inf", cost, cheapest, priced)
	}
	s.mu.Lock()
	rungs := len(s.tenants["m"].prices.cost)
	s.mu.Unlock()
	if rungs != 3 {
		t.Errorf("price table has %d rungs after off-ladder Warm, want 3", rungs)
	}
	st, _ := s.ModelStats("m")
	if !slices.Equal(st.Variants, []int{1, 3, 8}) {
		t.Errorf("compiled variants %v, want [1 3 8]", st.Variants)
	}
}

// TestBacklogCountsQueuedRows pins the queued half of the probe
// against the pool's cost model: rows held by a long batch window are
// priced as the greedy exact-bucket chain EFT dispatch would run.
func TestBacklogCountsQueuedRows(t *testing.T) {
	s := NewServer(ServerOptions{Devices: t4s(1)})
	defer s.Close()
	if err := s.Deploy("m", fakeVariant, DeployOptions{
		Buckets: []int{1, 2, 4}, BatchWindow: time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Warm("m"); err != nil {
		t.Fatal(err)
	}
	if got := s.BacklogSeconds(); got != 0 {
		t.Fatalf("idle backlog %g, want 0", got)
	}
	// Three rows against buckets {1,2,4} with an hour-long window: none
	// dispatch (no full largest bucket), so the probe must price the
	// greedy chain 2+1.
	for i := 0; i < 3; i++ {
		if _, err := s.InferAsync("m", sampleInput(int64(i+1)), InferOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	want := costLocked(s, "m", 2) + costLocked(s, "m", 1)
	if want <= 0 || math.IsInf(want, 1) {
		t.Fatalf("warmed costs unpriced: chain cost %g", want)
	}
	if got := s.BacklogSeconds(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("queued backlog %g, want chain cost %g", got, want)
	}
	if st := s.Stats(); math.Abs(st.BacklogSeconds-want) > 1e-12 {
		t.Fatalf("Stats().BacklogSeconds %g, want %g", st.BacklogSeconds, want)
	}
}

// TestBacklogCountsInFlightWork pins the in-flight half: a dispatched
// batch held on the worker shows up as the scheduler's committed
// finish time minus the execution clock — exactly the batch's modeled
// cost — and drops to zero once it retires.
func TestBacklogCountsInFlightWork(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var gate atomic.Bool
	s := NewServer(ServerOptions{
		Devices: t4s(1),
		Fault: func(worker int) BatchFault {
			if gate.CompareAndSwap(true, false) {
				entered <- struct{}{}
				<-release
			}
			return BatchFault{}
		},
	})
	// Cleanups run last-in first-out: the gate opens before Close waits
	// for the worker, so a failed assertion below fails at once instead
	// of parking Close until the package timeout.
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	t.Cleanup(func() { s.Close() })
	t.Cleanup(open)
	// The hour-long window holds rows until the largest bucket fills,
	// so the four requests leave as one batch however the host
	// interleaves their submission with the worker.
	if err := s.Deploy("m", fakeVariant, DeployOptions{
		Buckets: []int{1, 2, 4}, BatchWindow: time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Warm("m"); err != nil {
		t.Fatal(err)
	}
	gate.Store(true)
	chans := make([]<-chan Result, 4)
	for i := range chans {
		ch, err := s.InferAsync("m", sampleInput(int64(i+1)), InferOptions{})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	<-entered // the full bucket-4 batch is dispatched and held
	want := costLocked(s, "m", 4)
	if got := s.BacklogSeconds(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("in-flight backlog %g, want batch cost %g", got, want)
	}
	open()
	for _, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if got := s.BacklogSeconds(); got != 0 {
		t.Fatalf("drained backlog %g, want 0", got)
	}
}

// TestFaultHookKillsBatch pins the kill semantics: the injected error
// answers every request in the batch, counts in FailedBatches (both
// aggregate and per-device), and the priced cost still advances the
// worker clock so the EFT model stays honest.
func TestFaultHookKillsBatch(t *testing.T) {
	boom := errors.New("injected device fault")
	var arm atomic.Bool
	s := NewServer(ServerOptions{
		Devices: t4s(1),
		Fault: func(worker int) BatchFault {
			if arm.CompareAndSwap(true, false) {
				return BatchFault{Err: boom}
			}
			return BatchFault{}
		},
	})
	defer s.Close()
	if err := s.Deploy("m", fakeVariant, DeployOptions{Buckets: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Warm("m"); err != nil {
		t.Fatal(err)
	}
	arm.Store(true)
	ch, err := s.InferAsync("m", sampleInput(1), InferOptions{Priority: PriorityHigh})
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if !errors.Is(res.Err, boom) {
		t.Fatalf("result error %v, want the injected fault", res.Err)
	}
	if res.Output != nil {
		t.Fatal("killed batch must not produce output")
	}
	// The healthy path still works after the one-shot fault.
	out, err := s.Infer("m", sampleInput(2), InferOptions{Priority: PriorityHigh})
	if err != nil || out == nil {
		t.Fatalf("post-fault request failed: %v", err)
	}
	st := s.Stats()
	if st.FailedBatches != 1 {
		t.Errorf("FailedBatches %d, want 1", st.FailedBatches)
	}
	if st.Batches != 2 {
		t.Errorf("Batches %d, want 2 (failed batches stay counted)", st.Batches)
	}
	if len(st.Devices) != 1 || st.Devices[0].FailedBatches != 1 {
		t.Errorf("per-device failed batches %+v, want worker 0 at 1", st.Devices)
	}
	if st.SimMakespan <= 0 {
		t.Error("killed batch must still advance the worker clock")
	}
	ms, _ := s.ModelStats("m")
	if ms.FailedBatches != 1 {
		t.Errorf("model FailedBatches %d, want 1", ms.FailedBatches)
	}
}

// TestFaultHookStallDelaysClock pins the stall semantics: the batch
// succeeds but its worker's clock (and the request's SimLatency) is
// late by the stall, while busy seconds — useful work — are untouched.
func TestFaultHookStallDelaysClock(t *testing.T) {
	const stall = 5.0
	var arm atomic.Bool
	s := NewServer(ServerOptions{
		Devices: t4s(1),
		Fault: func(worker int) BatchFault {
			if arm.CompareAndSwap(true, false) {
				return BatchFault{StallSimSeconds: stall}
			}
			return BatchFault{}
		},
	})
	defer s.Close()
	if err := s.Deploy("m", fakeVariant, DeployOptions{Buckets: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Warm("m"); err != nil {
		t.Fatal(err)
	}
	arm.Store(true)
	ch, err := s.InferAsync("m", sampleInput(1), InferOptions{Priority: PriorityHigh})
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.SimLatency < stall {
		t.Errorf("stalled request SimLatency %g, want >= %g", res.SimLatency, stall)
	}
	st := s.Stats()
	if st.FailedBatches != 0 {
		t.Errorf("a stall is not a failure: FailedBatches %d", st.FailedBatches)
	}
	if st.SimMakespan < stall {
		t.Errorf("SimMakespan %g, want >= the %g stall", st.SimMakespan, stall)
	}
	if bs := st.Devices[0].BusySeconds; bs >= stall {
		t.Errorf("BusySeconds %g includes the stall; stalls buy no useful work", bs)
	}
}
