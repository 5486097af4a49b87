package bolt_test

// Fleet-layer validation at the public API (PR 9): the single-replica
// equivalence check against a bare Server, the Undeploy/Close drain
// with hedged duplicates still in flight, and the FleetStats
// aggregation exactness including a replica grown mid-run. Run with
// -race (these are in the CI serving-stress list).

import (
	"slices"
	"sync"
	"testing"
	"time"

	"bolt"
	"bolt/internal/tensor"
)

// TestFleetSingleReplicaBitIdentical pins the degenerate fleet: one
// replica, no failures, no hedging must behave exactly like a bare
// bolt.Server — every output bit-identical to the server's and to the
// clone-based oracle, with the same request accounting.
func TestFleetSingleReplicaBitIdentical(t *testing.T) {
	const n = 12
	inputs := make([]map[string]*bolt.Tensor, n)
	for i := range inputs {
		in := bolt.NewTensor(bolt.FP16, 1, 8, 16, 16)
		in.FillRandom(int64(i+1), 1)
		inputs[i] = map[string]*bolt.Tensor{"image": in}
	}
	oracleRes, err := bolt.Compile(buildTiny1(), bolt.T4(), bolt.Options{})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := bolt.NewServer(bolt.T4(), bolt.ServerOptions{Workers: 1, BatchWindow: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	flt, err := bolt.NewFleet(bolt.T4(), bolt.FleetOptions{
		Replicas:    []bolt.FleetReplica{{Workers: 1}},
		BatchWindow: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer flt.Close()
	deploy := bolt.DeployOptions{Buckets: []int{1, 2, 4}}
	if err := srv.Deploy("m", buildTiny1(), deploy); err != nil {
		t.Fatal(err)
	}
	if err := flt.Deploy("m", buildTiny1(), deploy); err != nil {
		t.Fatal(err)
	}

	srvOut := make([]*bolt.Tensor, n)
	fltOut := make([]*bolt.Tensor, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := srv.Infer("m", inputs[i], bolt.InferOptions{})
			if err != nil {
				t.Errorf("server request %d: %v", i, err)
				return
			}
			srvOut[i] = out
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := flt.Infer("m", inputs[i], bolt.InferOptions{})
			if err != nil {
				t.Errorf("fleet request %d: %v", i, err)
				return
			}
			fltOut[i] = out
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if srvOut[i] == nil || fltOut[i] == nil {
			continue // already reported
		}
		oracle := oracleRes.Module.RunUnplanned(inputs[i])
		if d := tensor.MaxAbsDiff(fltOut[i], srvOut[i]); d != 0 {
			t.Errorf("request %d: fleet output differs from bare server by %g", i, d)
		}
		if d := tensor.MaxAbsDiff(fltOut[i], oracle); d != 0 {
			t.Errorf("request %d: fleet output differs from oracle by %g", i, d)
		}
	}
	st := flt.Stats()
	if st.Routed != n || st.Delivered != n || st.DeliveredErrors != 0 {
		t.Errorf("fleet routed/delivered/errors %d/%d/%d, want %d/%d/0", st.Routed, st.Delivered, st.DeliveredErrors, n, n)
	}
	if st.HedgesIssued != 0 || st.Retries != 0 {
		t.Errorf("degenerate fleet hedged (%d) or retried (%d)", st.HedgesIssued, st.Retries)
	}
	if st.Serve.Requests != srv.Stats().Requests {
		t.Errorf("fleet served %d rows, bare server %d", st.Serve.Requests, srv.Stats().Requests)
	}
}

// TestFleetUndeployCloseHedgedDrain is the PR-9 regression stress:
// Undeploy then Close while hedged duplicates are still in flight
// must deliver exactly one result per request and drain cleanly (no
// goroutine may be left blocked on an abandoned duplicate).
func TestFleetUndeployCloseHedgedDrain(t *testing.T) {
	flt, err := bolt.NewFleet(bolt.T4(), bolt.FleetOptions{
		Replicas:    []bolt.FleetReplica{{Workers: 1}, {Workers: 1}},
		BatchWindow: time.Millisecond,
		Hedge:       bolt.HedgeOptions{Timeout: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := flt.Deploy("m", buildTiny1(), bolt.DeployOptions{Buckets: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := flt.Warm("m"); err != nil {
		t.Fatal(err)
	}
	// Stall both replicas' workers so primaries and their hedged
	// duplicates are all in flight when the model is torn down.
	flt.InjectFault(0, 0, 2, bolt.BatchFault{StallHostDelay: 100 * time.Millisecond})
	flt.InjectFault(1, 0, 2, bolt.BatchFault{StallHostDelay: 100 * time.Millisecond})
	const n = 4
	in := bolt.NewTensor(bolt.FP16, 1, 8, 16, 16)
	in.FillRandom(7, 1)
	chans := make([]<-chan bolt.FleetResult, n)
	for i := range chans {
		ch, err := flt.InferAsync("m", map[string]*bolt.Tensor{"image": in}, bolt.InferOptions{Priority: bolt.PriorityHigh})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	time.Sleep(20 * time.Millisecond) // let hedge timers fire mid-flight
	if err := flt.Undeploy("m"); err != nil {
		t.Fatal(err)
	}
	if err := flt.Close(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		if _, ok := <-ch; !ok {
			t.Errorf("request %d: channel closed without a result", i)
		}
		select {
		case extra, ok := <-ch:
			if ok {
				t.Errorf("request %d: double delivery: %+v", i, extra)
			}
		default:
		}
	}
	st := flt.Stats()
	if st.Routed != n || st.Delivered != n {
		t.Errorf("routed/delivered %d/%d, want %d/%d (requests lost in the drain)", st.Routed, st.Delivered, n, n)
	}
}

// TestFleetStatsAggregationExact checks the FleetStats contract at
// the public API: after a quiesced run that grew a replica mid-way,
// every per-replica row must sum exactly to the aggregate.
func TestFleetStatsAggregationExact(t *testing.T) {
	flt, err := bolt.NewFleet(bolt.T4(), bolt.FleetOptions{
		Replicas:    []bolt.FleetReplica{{Workers: 1}, {Workers: 1}},
		BatchWindow: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := flt.Deploy("m", buildTiny1(), bolt.DeployOptions{Buckets: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	const n = 8
	infer := func(count int) {
		var wg sync.WaitGroup
		for i := 0; i < count; i++ {
			in := bolt.NewTensor(bolt.FP16, 1, 8, 16, 16)
			in.FillRandom(int64(i+1), 1)
			wg.Add(1)
			go func(in *bolt.Tensor) {
				defer wg.Done()
				ch, err := flt.InferAsync("m", map[string]*bolt.Tensor{"image": in}, bolt.InferOptions{})
				if err != nil {
					t.Errorf("infer: %v", err)
					return
				}
				res := <-ch
				if res.Err != nil {
					t.Errorf("infer: %v", res.Err)
					return
				}
				if got := res.QueueWait + res.ExecuteSeconds; got != res.SimLatency {
					t.Errorf("fleet result breakdown %v != SimLatency %v", got, res.SimLatency)
				}
			}(in)
		}
		wg.Wait()
	}
	infer(n)
	if _, err := flt.Grow(); err != nil {
		t.Fatal(err)
	}
	infer(n)
	if err := flt.Close(); err != nil {
		t.Fatal(err)
	}

	st := flt.Stats()
	if len(st.Replicas) != 3 {
		t.Fatalf("got %d replica rows, want 3", len(st.Replicas))
	}
	grown := 0
	var requests, batches, hedges, retries, growEv int64
	for _, r := range st.Replicas {
		if r.Grown {
			grown++
		}
		requests += r.Serve.Requests
		batches += r.Serve.Batches
		hedges += r.HedgesIssued
		retries += r.Retries
		growEv += r.GrowEvents
	}
	if grown != 1 {
		t.Errorf("%d rows flagged Grown, want 1", grown)
	}
	if requests != st.Serve.Requests {
		t.Errorf("per-replica requests sum %d != aggregate %d", requests, st.Serve.Requests)
	}
	if batches != st.Serve.Batches {
		t.Errorf("per-replica batches sum %d != aggregate %d", batches, st.Serve.Batches)
	}
	if hedges != st.HedgesIssued || retries != st.Retries || growEv != st.GrowEvents {
		t.Errorf("router counter sums (hedges %d, retries %d, grows %d) != aggregates (%d, %d, %d)",
			hedges, retries, growEv, st.HedgesIssued, st.Retries, st.GrowEvents)
	}
	if st.GrowEvents != 1 {
		t.Errorf("grow events %d, want 1", st.GrowEvents)
	}
	if st.Routed != 2*n || st.Delivered != 2*n {
		t.Errorf("routed/delivered %d/%d, want %d/%d", st.Routed, st.Delivered, 2*n, 2*n)
	}
	if st.Serve.Requests != 2*n {
		t.Errorf("served rows %d, want %d (no hedges -> one replica row per request)", st.Serve.Requests, 2*n)
	}
	// The aggregate's Variants is the sorted union of the replicas'.
	var union []int
	for _, r := range st.Replicas {
		union = append(union, r.Serve.Variants...)
	}
	slices.Sort(union)
	union = slices.Compact(union)
	if len(union) == 0 || !slices.Equal(st.Serve.Variants, union) {
		t.Errorf("aggregate variants %v, want the non-empty union %v of the replicas' variants", st.Serve.Variants, union)
	}
}
