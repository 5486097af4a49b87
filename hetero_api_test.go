package bolt_test

// Heterogeneous device pool validation (PR 5): single-device pools
// stay bit-identical to the PR-4 serving behavior, mixed T4+A100 pools
// serve every request bit-identically to the oracle of whichever
// device ran it (per-device variant compilation through one shared
// tuning log), options are validated, and the per-tenant variant
// budget evicts without corrupting results. Workers: n is shorthand
// for n copies of the server's device, so a Workers pool names that
// device and serves exactly like the Devices form. Run with -race.

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bolt"
	"bolt/internal/tensor"
)

// TestServerSingleDevicePoolBitIdentical is the PR-5 migration
// acceptance: a Devices pool with one T4 entry must be
// behavior-identical to PR-4 scheduling — every batched output
// bit-identical to the per-model RunUnplanned oracle under concurrent
// load, with the pool's single device row accounting for every batch.
func TestServerSingleDevicePoolBitIdentical(t *testing.T) {
	srv, err := bolt.NewServer(bolt.T4(), bolt.ServerOptions{
		Devices:     []*bolt.Device{bolt.T4()},
		BatchWindow: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Deploy("m", buildTiny1(), bolt.DeployOptions{Buckets: []int{1, 2, 4}}); err != nil {
		t.Fatal(err)
	}
	oracleRes, err := bolt.Compile(buildTiny1(), bolt.T4(), bolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const requests = 16
	inputs := make([]map[string]*bolt.Tensor, requests)
	oracle := make([]*bolt.Tensor, requests)
	for i := range inputs {
		in := bolt.NewTensor(bolt.FP16, 1, 8, 16, 16)
		in.FillRandom(int64(i+1), 1)
		inputs[i] = map[string]*bolt.Tensor{"image": in}
		oracle[i] = oracleRes.Module.RunUnplanned(inputs[i])
	}
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := srv.Infer("m", inputs[i], bolt.InferOptions{})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if d := tensor.MaxAbsDiff(out, oracle[i]); d != 0 {
				t.Errorf("request %d: diff %g from RunUnplanned oracle", i, d)
			}
		}(i)
	}
	wg.Wait()
	agg := srv.Stats()
	if len(agg.Devices) != 1 || agg.Devices[0].Device != "Tesla T4" {
		t.Fatalf("device rows %+v, want exactly one Tesla T4", agg.Devices)
	}
	if agg.Devices[0].Batches != agg.Batches {
		t.Errorf("device row has %d batches, aggregate %d", agg.Devices[0].Batches, agg.Batches)
	}
	if agg.Devices[0].UtilizationShare != 1 {
		t.Errorf("single device utilization share %g, want 1", agg.Devices[0].UtilizationShare)
	}
}

// TestServerHeteroPoolPerDeviceOracles runs a mixed T4+A100 pool under
// concurrent load: every request's output must be bit-identical to the
// RunUnplanned oracle compiled for the device that served it (the
// variants really are per-device), and the per-device rows must sum to
// the aggregate.
func TestServerHeteroPoolPerDeviceOracles(t *testing.T) {
	srv, err := bolt.NewServer(bolt.T4(), bolt.ServerOptions{
		Devices:     []*bolt.Device{bolt.T4(), bolt.A100()},
		BatchWindow: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Deploy("m", buildTiny1(), bolt.DeployOptions{Buckets: []int{1, 2, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Warm("m"); err != nil {
		t.Fatal(err)
	}
	oracles := map[string]*bolt.Module{}
	for _, dev := range []*bolt.Device{bolt.T4(), bolt.A100()} {
		res, err := bolt.Compile(buildTiny1(), dev, bolt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		oracles[dev.Name] = res.Module
	}
	const requests = 24
	inputs := make([]map[string]*bolt.Tensor, requests)
	chans := make([]<-chan bolt.ServeResult, requests)
	for i := range inputs {
		in := bolt.NewTensor(bolt.FP16, 1, 8, 16, 16)
		in.FillRandom(int64(i+1), 1)
		inputs[i] = map[string]*bolt.Tensor{"image": in}
		ch, err := srv.InferAsync("m", inputs[i], bolt.InferOptions{Priority: bolt.PriorityBulk})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		mod, ok := oracles[res.Device]
		if !ok {
			t.Fatalf("request %d served by unknown device %q", i, res.Device)
		}
		if d := tensor.MaxAbsDiff(res.Output, mod.RunUnplanned(inputs[i])); d != 0 {
			t.Errorf("request %d on %s: diff %g from that device's oracle", i, res.Device, d)
		}
	}
	agg := srv.Stats()
	var batches int64
	for _, d := range agg.Devices {
		batches += d.Batches
	}
	if batches != agg.Batches {
		t.Errorf("per-device batches sum to %d, aggregate %d", batches, agg.Batches)
	}
}

// TestServerOptionsValidation pins the configuration satellite:
// Workers and Devices together must be rejected loudly (not silently
// preferred), and nil device entries must be rejected.
func TestServerOptionsValidation(t *testing.T) {
	_, err := bolt.NewServer(bolt.T4(), bolt.ServerOptions{
		Workers: 2,
		Devices: []*bolt.Device{bolt.T4()},
	})
	if err == nil {
		t.Fatal("Workers+Devices both set must error")
	}
	if !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("error %q does not explain the conflict", err)
	}
	if _, err := bolt.NewServer(bolt.T4(), bolt.ServerOptions{
		Devices: []*bolt.Device{bolt.T4(), nil},
	}); err == nil {
		t.Fatal("nil Devices entry must error")
	}
	// Same-named devices share one variant class, so divergent specs
	// under one name must be rejected, not silently collapsed.
	tweaked := bolt.T4()
	tweaked.SMs *= 2
	if _, err := bolt.NewServer(bolt.T4(), bolt.ServerOptions{
		Devices: []*bolt.Device{bolt.T4(), tweaked},
	}); err == nil {
		t.Fatal("same-named devices with different specs must error")
	}
	// Two stock instances of the same device are fine: one class.
	srv, err := bolt.NewServer(bolt.T4(), bolt.ServerOptions{
		Devices: []*bolt.Device{bolt.T4(), bolt.T4()},
	})
	if err != nil {
		t.Fatalf("two identical T4 instances rejected: %v", err)
	}
	srv.Close()
}

// TestWorkersPoolNamesItsDevice pins that Workers: n is n copies of
// the server's device, not an anonymous class: every result, every
// device row and the metrics exposition name that device, and a nil
// device behind Workers fails at construction instead of at the first
// compile.
func TestWorkersPoolNamesItsDevice(t *testing.T) {
	t4 := bolt.T4()
	srv, err := bolt.NewServer(t4, bolt.ServerOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Deploy("m", buildTiny1(), bolt.DeployOptions{Buckets: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	chans := make([]<-chan bolt.ServeResult, 8)
	for i := range chans {
		in := bolt.NewTensor(bolt.FP16, 1, 8, 16, 16)
		in.FillRandom(int64(i+1), 1)
		ch, err := srv.InferAsync("m", map[string]*bolt.Tensor{"image": in}, bolt.InferOptions{})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Device != t4.Name {
			t.Errorf("request %d served on device %q, want %q", i, res.Device, t4.Name)
		}
	}
	st := srv.Stats()
	if len(st.Devices) != 2 {
		t.Fatalf("%d device rows, want 2", len(st.Devices))
	}
	for _, d := range st.Devices {
		if d.Device != t4.Name {
			t.Errorf("worker %d device row names %q, want %q", d.Worker, d.Device, t4.Name)
		}
	}
	if snap, want := srv.Snapshot(), `device="`+t4.Name+`"`; !strings.Contains(snap, want) {
		t.Errorf("snapshot lacks %s:\n%s", want, snap)
	}

	if srv, err := bolt.NewServer(nil, bolt.ServerOptions{Workers: 1}); err == nil {
		srv.Close()
		t.Error("NewServer(nil, {Workers: 1}) must fail: its workers model no device")
	}
	if flt, err := bolt.NewFleet(nil, bolt.FleetOptions{Replicas: []bolt.FleetReplica{{Workers: 1}}}); err == nil {
		flt.Close()
		t.Error("NewFleet(nil, {Replicas: {{Workers: 1}}}) must fail: its workers model no device")
	}
}

// TestServerSingleDevicePoolMatchesWorkers pins that the two ways of
// describing one T4 worker are one pool: Workers: 1 on a T4 server and
// Devices: {T4} serve the same outputs in the same batches, with equal
// Stats. The hour-long window holds bulk rows for full buckets, so the
// batch composition does not depend on host timing.
func TestServerSingleDevicePoolMatchesWorkers(t *testing.T) {
	run := func(opts bolt.ServerOptions) ([]*bolt.Tensor, bolt.ServeStats) {
		opts.BatchWindow = time.Hour
		srv, err := bolt.NewServer(bolt.T4(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if err := srv.Deploy("m", buildTiny1(), bolt.DeployOptions{Buckets: []int{1, 2, 4}}); err != nil {
			t.Fatal(err)
		}
		chans := make([]<-chan bolt.ServeResult, 8)
		for i := range chans {
			in := bolt.NewTensor(bolt.FP16, 1, 8, 16, 16)
			in.FillRandom(int64(i+1), 1)
			ch, err := srv.InferAsync("m", map[string]*bolt.Tensor{"image": in}, bolt.InferOptions{Priority: bolt.PriorityBulk})
			if err != nil {
				t.Fatal(err)
			}
			chans[i] = ch
		}
		outs := make([]*bolt.Tensor, len(chans))
		for i, ch := range chans {
			res := <-ch
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			outs[i] = res.Output
		}
		return outs, srv.Stats()
	}
	workerOuts, workerStats := run(bolt.ServerOptions{Workers: 1})
	poolOuts, poolStats := run(bolt.ServerOptions{Devices: []*bolt.Device{bolt.T4()}})
	for i := range workerOuts {
		if d := tensor.MaxAbsDiff(workerOuts[i], poolOuts[i]); d != 0 {
			t.Fatalf("output %d differs by %g between the Workers form and the Devices form", i, d)
		}
	}
	if !reflect.DeepEqual(workerStats.BatchSizes, poolStats.BatchSizes) {
		t.Errorf("batch histogram differs: Workers %v vs Devices %v", workerStats.BatchSizes, poolStats.BatchSizes)
	}
	if !reflect.DeepEqual(workerStats, poolStats) {
		t.Errorf("stats differ:\nWorkers %+v\nDevices %+v", workerStats, poolStats)
	}
}

// TestServerEvictionBudget pins the bolt-level eviction surface: a
// tight MaxVariantBytes evicts compiled variants (counted in Stats)
// while serving stays correct through recompiles.
func TestServerEvictionBudget(t *testing.T) {
	srv, err := bolt.NewServer(bolt.T4(), bolt.ServerOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Deploy("m", buildTiny1(), bolt.DeployOptions{
		Buckets:         []int{1, 2},
		MaxVariantBytes: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Warm("m"); err != nil {
		t.Fatal(err)
	}
	st, _ := srv.ModelStats("m")
	if st.Evictions < 1 {
		t.Errorf("evictions = %d after warming 2 buckets into a 1-byte budget, want >= 1", st.Evictions)
	}
	in := map[string]*bolt.Tensor{"image": bolt.NewTensor(bolt.FP16, 1, 8, 16, 16)}
	in["image"].FillRandom(3, 1)
	oracleRes, err := bolt.Compile(buildTiny1(), bolt.T4(), bolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := srv.Infer("m", in, bolt.InferOptions{Priority: bolt.PriorityHigh})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(out, oracleRes.Module.RunUnplanned(in)); d != 0 {
		t.Errorf("post-eviction output differs from oracle by %g", d)
	}
}
