package serve

import (
	"math"
	"testing"
	"time"

	"bolt/internal/gpu"
	"bolt/internal/relay"
	"bolt/internal/tensor"
)

// TestNewPoolGroupsClasses pins the device-class grouping: same-name
// devices share a class, and classes appear in first-appearance order.
func TestNewPoolGroupsClasses(t *testing.T) {
	t4a, t4b, a100 := gpu.T4(), gpu.T4(), gpu.A100()
	p := newPool([]*gpu.Device{t4a, a100, t4b, a100})
	if len(p.classes) != 2 {
		t.Fatalf("got %d classes, want 2 (T4 instances share one)", len(p.classes))
	}
	if p.classes[0].dev.Name != t4a.Name || p.classes[1].dev.Name != a100.Name {
		t.Errorf("class order %q/%q, want first-appearance T4 then A100",
			p.classes[0].dev.Name, p.classes[1].dev.Name)
	}
	if got := p.classOf; got[0] != 0 || got[1] != 1 || got[2] != 0 || got[3] != 1 {
		t.Errorf("classOf = %v, want [0 1 0 1]", got)
	}
}

// TestPlaceEFTDeterministicTieBreak pins the placement policy: equal
// finish times go to the lowest worker index (so a one-class pool
// with equal costs degenerates to round-robin), equal finish times
// across classes prefer the class with a live compiled variant, and
// the whole sequence is reproducible.
func TestPlaceEFTDeterministicTieBreak(t *testing.T) {
	// Three T4s (one class), equal costs: round-robin emerges.
	p := newPool(t4s(3))
	var seq []int
	for i := 0; i < 6; i++ {
		pl := p.place([]float64{2}, []bool{true}, 0)
		p.commit(pl)
		seq = append(seq, pl.worker)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("one-class placement sequence %v, want %v", seq, want)
		}
	}

	// Two classes, equal cost and equal clocks: the tie must go to the
	// class whose variant is already compiled, not the lower index.
	p2 := newPool([]*gpu.Device{gpu.T4(), gpu.A100()})
	pl := p2.place([]float64{5, 5}, []bool{false, true}, 0)
	if pl.worker != 1 {
		t.Errorf("tie with only class 1 compiled placed on worker %d, want 1", pl.worker)
	}
	// Both compiled: lowest index wins.
	pl = p2.place([]float64{5, 5}, []bool{true, true}, 0)
	if pl.worker != 0 {
		t.Errorf("full tie placed on worker %d, want 0", pl.worker)
	}

	// An unpriceable class (+Inf) loses to any finite class...
	pl = p2.place([]float64{math.Inf(1), 9}, []bool{false, false}, 0)
	if pl.worker != 1 {
		t.Errorf("infinite-cost class won placement: worker %d", pl.worker)
	}
	// ...and when every class is infinite, worker 0 surfaces the error
	// without corrupting the finish-time model.
	before := append([]float64(nil), p2.sched...)
	pl = p2.place([]float64{math.Inf(1), math.Inf(1)}, []bool{false, false}, 0)
	p2.commit(pl)
	if pl.worker != 0 {
		t.Errorf("all-infinite placement on worker %d, want 0", pl.worker)
	}
	for w := range before {
		if p2.sched[w] != before[w] {
			t.Errorf("commit of unpriceable batch moved sched[%d] from %g to %g", w, before[w], p2.sched[w])
		}
	}
}

// TestPlaceEFTKeepsFastDeviceBusy pins the ISSUE-5 dispatch property:
// on a mixed pool the fast device is never left idle while a full
// bucket waits — every batch goes to the worker whose modeled finish
// time is smallest, so the work split tracks the classes' cost ratio.
func TestPlaceEFTKeepsFastDeviceBusy(t *testing.T) {
	p := newPool([]*gpu.Device{gpu.T4(), gpu.A100()})
	costs := []float64{3, 1} // T4 class 3x slower than A100 class
	live := []bool{true, true}
	counts := make([]int, 2)
	for i := 0; i < 12; i++ {
		// The invariant: the chosen worker's finish time is the minimum
		// over all workers.
		pl := p.place(costs, live, 0)
		for w := range p.sched {
			if alt := p.sched[w] + costs[p.classOf[w]]; alt < pl.finish {
				t.Fatalf("batch %d placed at finish %g while worker %d would finish at %g", i, pl.finish, w, alt)
			}
		}
		p.commit(pl)
		counts[pl.worker]++
	}
	if counts[1] <= counts[0] {
		t.Errorf("A100 ran %d batches vs T4's %d, want the fast class to absorb more", counts[1], counts[0])
	}
	// With a 3:1 cost ratio over 12 batches the steady-state split is
	// 3 T4 : 9 A100 (finish times interleave exactly).
	if counts[0] != 3 || counts[1] != 9 {
		t.Errorf("split %v, want [3 9] for a 3:1 cost ratio", counts)
	}
}

// TestServerHeteroDispatchAndDeviceStats runs a real mixed-device
// server over the fake variant: the A100 class must absorb more
// batches than the T4 class, per-device stats must sum to the
// aggregate, and results must carry the serving device's name.
func TestServerHeteroDispatchAndDeviceStats(t *testing.T) {
	t4, a100 := gpu.T4(), gpu.A100()
	s := NewServer(ServerOptions{Devices: []*gpu.Device{t4, a100}})
	defer s.Close()
	// An hour-long window holds bulk rows for full buckets, so the 64
	// requests always run as 16 batches of 4. With a zero window the
	// batch sizes followed how many requests were queued when the
	// scheduler looked, which made the per-device row counts depend on
	// host timing.
	if err := s.Deploy("m", fakeVariant, DeployOptions{Buckets: []int{1, 4}, BatchWindow: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := s.Warm("m"); err != nil {
		t.Fatal(err)
	}
	const requests = 64
	chans := make([]<-chan Result, requests)
	for i := range chans {
		ch, err := s.InferAsync("m", sampleInput(int64(i+1)), InferOptions{Priority: PriorityBulk})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	perDevice := map[string]int{}
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Device == "" {
			t.Fatalf("request %d served without a device name", i)
		}
		perDevice[res.Device]++
		want := sampleInput(int64(i + 1))["x"]
		for j, v := range want.Data() {
			if res.Output.Data()[j] != v+1 {
				t.Fatalf("request %d wrong output", i)
			}
		}
	}
	if perDevice[a100.Name] < perDevice[t4.Name] {
		t.Errorf("A100 served %d requests vs T4's %d, want the fast device to absorb at least as many",
			perDevice[a100.Name], perDevice[t4.Name])
	}
	agg := s.Stats()
	if len(agg.Devices) != 2 {
		t.Fatalf("got %d device rows, want 2", len(agg.Devices))
	}
	var batches int64
	var share float64
	for _, d := range agg.Devices {
		batches += d.Batches
		share += d.UtilizationShare
		if d.Batches > 0 && d.BusySeconds <= 0 {
			t.Errorf("worker %d (%s) ran %d batches with zero busy time", d.Worker, d.Device, d.Batches)
		}
		if d.SimMakespan > agg.SimMakespan {
			t.Errorf("worker %d makespan %g exceeds aggregate %g", d.Worker, d.SimMakespan, agg.SimMakespan)
		}
	}
	if batches != agg.Batches {
		t.Errorf("per-device batches sum to %d, aggregate says %d", batches, agg.Batches)
	}
	if math.Abs(share-1) > 1e-9 {
		t.Errorf("utilization shares sum to %g, want 1", share)
	}
}

// TestServerSimArrivalSemantics pins the arrival-process satellite: a
// worker cannot start a batch before its latest member arrived, and
// SimLatency is completion minus arrival — so an idle server's request
// latency is just its batch cost, regardless of how late it arrives.
func TestServerSimArrivalSemantics(t *testing.T) {
	s := NewServer(ServerOptions{Devices: t4s(1)})
	defer s.Close()
	if err := s.Deploy("m", fakeVariant, DeployOptions{Buckets: []int{1}}); err != nil {
		t.Fatal(err)
	}
	// First request: flood semantics (arrival 0).
	r0, err := s.InferAsync("m", sampleInput(1), InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res0 := <-r0
	if res0.Err != nil {
		t.Fatal(res0.Err)
	}
	cost := res0.SimLatency
	if cost <= 0 {
		t.Fatalf("flood request latency %g, want > 0", cost)
	}
	// Second request arrives at sim t=5s, far beyond the first batch's
	// completion: the worker idles until then, so latency stays ~cost
	// while the makespan jumps past the arrival.
	r1, err := s.InferAsync("m", sampleInput(2), InferOptions{SimArrival: 5})
	if err != nil {
		t.Fatal(err)
	}
	res1 := <-r1
	if res1.Err != nil {
		t.Fatal(res1.Err)
	}
	if res1.SimArrival != 5 {
		t.Errorf("SimArrival echoed as %g, want 5", res1.SimArrival)
	}
	if math.Abs(res1.SimLatency-cost) > 1e-12 {
		t.Errorf("idle-server latency %g, want the batch cost %g (completion minus arrival)", res1.SimLatency, cost)
	}
	if st := s.Stats(); st.SimMakespan < 5 {
		t.Errorf("makespan %g, want >= the 5s arrival the worker waited for", st.SimMakespan)
	}
	// Negative arrivals clamp to the flood default.
	r2, err := s.InferAsync("m", sampleInput(3), InferOptions{SimArrival: -3})
	if err != nil {
		t.Fatal(err)
	}
	if res2 := <-r2; res2.SimArrival != 0 {
		t.Errorf("negative SimArrival echoed as %g, want clamped 0", res2.SimArrival)
	}
}

// TestServerVariantEvictionLRU pins the eviction satellite: with a
// tiny per-class budget, warming several buckets evicts the
// least-recently-used variants (counted in Stats), while serving still
// works — evicted variants recompile on demand.
func TestServerVariantEvictionLRU(t *testing.T) {
	s := NewServer(ServerOptions{Devices: t4s(1)})
	defer s.Close()
	if err := s.Deploy("m", fakeVariant, DeployOptions{
		Buckets:         []int{1, 2, 4},
		MaxVariantBytes: 1, // smaller than any variant: at most one survives
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Warm("m"); err != nil {
		t.Fatal(err)
	}
	st, _ := s.ModelStats("m")
	if st.Evictions < 2 {
		t.Errorf("evictions = %d after warming 3 buckets into a 1-byte budget, want >= 2", st.Evictions)
	}
	if len(st.Variants) > 1 {
		t.Errorf("live variants %v, want at most one under the budget", st.Variants)
	}
	// Serving an evicted bucket recompiles and still answers correctly.
	out, err := s.Infer("m", sampleInput(9), InferOptions{Priority: PriorityHigh})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleInput(9)["x"]
	for i, v := range want.Data() {
		if out.Data()[i] != v+1 {
			t.Fatalf("post-eviction output wrong at %d", i)
		}
	}
	if agg := s.Stats(); agg.Evictions != st.Evictions && agg.Evictions < st.Evictions {
		t.Errorf("aggregate evictions %d lost the per-model count %d", agg.Evictions, st.Evictions)
	}
}

// The fake module graphs must be plannable, or execution and eviction
// sizing (Module.Memory) would panic; pin that assumption here so a
// change to fakeVariant fails loudly.
func TestFakeVariantIsPlannable(t *testing.T) {
	mod, err := fakeVariant(gpu.T4(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan := relay.PlanMemory(mod.Graph); plan == nil {
		t.Fatal("fake module graph did not plan")
	}
	if mod.Memory().PlannedArenaBytes <= 0 {
		t.Error("fake module reports a zero-byte arena; eviction sizing would be vacuous")
	}
	_ = tensor.Shape{} // keep the tensor import pinned alongside relay
}
