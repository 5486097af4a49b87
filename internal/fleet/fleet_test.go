package fleet

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bolt/internal/gpu"
	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/serve"
	"bolt/internal/tensor"
)

// testCompile builds a hand-made two-kernel module (input -> x+1) at
// the given batch, bound to the target device, optionally counting
// invocations — the fleet-level stand-in for the tuning pipeline.
func testCompile(counter *atomic.Int64) serve.CompileFunc {
	return func(dev *gpu.Device, batch int) (*rt.Module, error) {
		if counter != nil {
			counter.Add(1)
		}
		in := &relay.Node{ID: 0, Op: relay.OpInput, Name: "x",
			Shape: tensor.Shape{batch, 4}, DType: tensor.FP32}
		add := &relay.Node{ID: 1, Op: relay.OpActivation, Inputs: []*relay.Node{in},
			Shape: tensor.Shape{batch, 4}, DType: tensor.FP32}
		g := &relay.Graph{Nodes: []*relay.Node{in, add}, Inputs: []*relay.Node{in}, Output: add}
		return &rt.Module{
			Graph:  g,
			Device: dev,
			Kernels: []rt.Kernel{
				{Name: "in", Node: in, Slot: 0,
					Exec: func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor { return env.Input("x") }},
				{Name: "add1", Node: add, Slot: 1, Launches: 1,
					Desc: rt.ElementwiseLikeDesc("add1", batch*4, 1, 1, tensor.FP32),
					Exec: func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
						x := env.Value(0)
						out := x.Clone()
						for i, v := range x.Data() {
							out.Data()[i] = v + 1
						}
						return out
					}},
			},
		}, nil
	}
}

// t4s returns a replica pool of n workers that all model a Tesla T4.
func t4s(n int) []*gpu.Device {
	pool := make([]*gpu.Device, n)
	for i := range pool {
		pool[i] = gpu.T4()
	}
	return pool
}

func sampleInput(seed int64) map[string]*tensor.Tensor {
	in := tensor.New(tensor.FP32, 1, 4)
	in.FillRandom(seed, 1)
	return map[string]*tensor.Tensor{"x": in}
}

// TestFleetServesAcrossReplicas pins the basic path: requests route,
// results come back correct, and the accounting closes (routed ==
// delivered, per-replica requests sum to the aggregate).
func TestFleetServesAcrossReplicas(t *testing.T) {
	f := New(Options{Replicas: [][]*gpu.Device{t4s(1), t4s(1)}})
	if err := f.Deploy("m", testCompile(nil), serve.DeployOptions{Buckets: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Warm("m"); err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		in := sampleInput(int64(i + 1))
		out, err := f.Infer("m", in, serve.InferOptions{Priority: serve.PriorityHigh})
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range in["x"].Data() {
			if out.Data()[j] != v+1 {
				t.Fatalf("request %d slot %d: got %g want %g", i, j, out.Data()[j], v+1)
			}
		}
	}
	f.Close()
	st := f.Stats()
	if st.Routed != n || st.Delivered != n || st.DeliveredErrors != 0 {
		t.Errorf("routed/delivered/errors = %d/%d/%d, want %d/%d/0",
			st.Routed, st.Delivered, st.DeliveredErrors, n, n)
	}
	var sum int64
	for _, r := range st.Replicas {
		sum += r.Serve.Requests
	}
	if sum != st.Serve.Requests || sum != n {
		t.Errorf("per-replica requests sum %d, aggregate %d, want %d", sum, st.Serve.Requests, n)
	}
}

// TestFleetRetriesOnKill pins the retry path: an injected kill on the
// chosen replica is masked by one retry on the other, the caller sees
// a healthy result, and the failure is charged to the right replica.
func TestFleetRetriesOnKill(t *testing.T) {
	f := New(Options{Replicas: [][]*gpu.Device{t4s(1), t4s(1)}})
	defer f.Close()
	if err := f.Deploy("m", testCompile(nil), serve.DeployOptions{Buckets: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Warm("m"); err != nil {
		t.Fatal(err)
	}
	// Both replicas idle: the router picks replica 0 (lowest id on a
	// backlog tie). Its next batch dies.
	f.InjectFault(0, 0, 1, serve.BatchFault{Err: ErrInjectedKill})
	ch, err := f.InferAsync("m", sampleInput(1), serve.InferOptions{Priority: serve.PriorityHigh})
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if res.Err != nil {
		t.Fatalf("retry did not mask the kill: %v", res.Err)
	}
	if !res.Retried || res.Replica != 1 {
		t.Errorf("result replica=%d retried=%v, want the retry on replica 1", res.Replica, res.Retried)
	}
	st := f.Stats()
	if st.Retries != 1 || st.Replicas[0].Retries != 1 {
		t.Errorf("retries aggregate=%d replica0=%d, want 1/1", st.Retries, st.Replicas[0].Retries)
	}
	if st.Serve.FailedBatches != 1 || st.Replicas[0].Serve.FailedBatches != 1 {
		t.Errorf("failed batches aggregate=%d replica0=%d, want 1/1",
			st.Serve.FailedBatches, st.Replicas[0].Serve.FailedBatches)
	}
	if st.DeliveredErrors != 0 {
		t.Errorf("delivered errors %d, want 0", st.DeliveredErrors)
	}
}

// TestFleetHedgesOnStall pins the hedge path: a wall-clock stall on
// the chosen replica lets the hedge fire and win on the healthy one,
// and the loser is drained and counted as canceled.
func TestFleetHedgesOnStall(t *testing.T) {
	f := New(Options{
		Replicas: [][]*gpu.Device{t4s(1), t4s(1)},
		Hedge:    HedgeOptions{Timeout: 10 * time.Millisecond},
	})
	if err := f.Deploy("m", testCompile(nil), serve.DeployOptions{Buckets: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Warm("m"); err != nil {
		t.Fatal(err)
	}
	f.InjectFault(0, 0, 1, serve.BatchFault{StallHostDelay: time.Second})
	ch, err := f.InferAsync("m", sampleInput(1), serve.InferOptions{Priority: serve.PriorityHigh})
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Hedged || res.Replica != 0 && res.Replica != 1 {
		t.Errorf("result hedged=%v replica=%d", res.Hedged, res.Replica)
	}
	if res.Replica != 1 {
		t.Errorf("hedge on replica 1 should beat a 1s stall on replica 0 (won on %d)", res.Replica)
	}
	f.Close() // waits for the loser to drain
	st := f.Stats()
	if st.HedgesIssued != 1 || st.Replicas[0].HedgesIssued != 1 {
		t.Errorf("hedges issued aggregate=%d replica0=%d, want 1/1", st.HedgesIssued, st.Replicas[0].HedgesIssued)
	}
	if st.HedgesWon != 1 || st.Replicas[1].HedgesWon != 1 {
		t.Errorf("hedges won aggregate=%d replica1=%d, want 1/1", st.HedgesWon, st.Replicas[1].HedgesWon)
	}
	if st.HedgesCanceled != 1 || st.Replicas[0].HedgesCanceled != 1 {
		t.Errorf("hedges canceled aggregate=%d replica0=%d, want 1/1",
			st.HedgesCanceled, st.Replicas[0].HedgesCanceled)
	}
	if st.Routed != 1 || st.Delivered != 1 || st.DeliveredErrors != 0 {
		t.Errorf("routed/delivered/errors = %d/%d/%d, want 1/1/0", st.Routed, st.Delivered, st.DeliveredErrors)
	}
}

// routeCounters is one replica's router-level accounting after a
// request settled.
type routeCounters struct {
	hedgesIssued, hedgesWon, hedgesCanceled, retries, consecFails int64
}

// TestFleetRouteOutcomeOrders drives one request through every order in
// which its attempts can answer — forced with scripted kills and host
// stalls on two one-worker replicas — and pins exactly one delivery,
// the delivered Replica/Hedged/Retried, and every per-replica counter
// and health streak. The primary always lands on replica 0 (both idle,
// lowest id wins the tie); a hedge or retry lands on replica 1.
func TestFleetRouteOutcomeOrders(t *testing.T) {
	const (
		hedgeAfter = 20 * time.Millisecond
		short      = 150 * time.Millisecond // answers after the hedge fired
		long       = 400 * time.Millisecond // answers after a short one
	)
	kill := serve.BatchFault{Err: ErrInjectedKill}
	stall := func(d time.Duration) serve.BatchFault { return serve.BatchFault{StallHostDelay: d} }
	stallKill := func(d time.Duration) serve.BatchFault {
		return serve.BatchFault{StallHostDelay: d, Err: ErrInjectedKill}
	}
	cases := []struct {
		name    string
		hedge   time.Duration
		faults  [2]serve.BatchFault // next batch on replica 0 / 1
		replica int
		hedged  bool
		retried bool
		failed  bool
		want    [2]routeCounters
	}{
		{name: "primary ok", hedge: hedgeAfter,
			replica: 0},
		{name: "primary fails, retry ok", // TestFleetRetriesOnKill's order
			faults:  [2]serve.BatchFault{kill, {}},
			replica: 1, retried: true,
			want: [2]routeCounters{{retries: 1, consecFails: 1}, {}}},
		{name: "primary fails, retry fails",
			faults:  [2]serve.BatchFault{kill, kill},
			replica: 1, retried: true, failed: true,
			want: [2]routeCounters{{retries: 1, consecFails: 1}, {consecFails: 1}}},
		{name: "hedge issued, primary wins", hedge: hedgeAfter,
			faults:  [2]serve.BatchFault{stall(short), stall(long)},
			replica: 0, hedged: true,
			want: [2]routeCounters{{hedgesIssued: 1}, {hedgesCanceled: 1}}},
		{name: "hedge issued, hedge wins", hedge: hedgeAfter, // TestFleetHedgesOnStall's order
			faults:  [2]serve.BatchFault{stall(short), {}},
			replica: 1, hedged: true,
			want: [2]routeCounters{{hedgesIssued: 1, hedgesCanceled: 1}, {hedgesWon: 1}}},
		{name: "hedge fails, then primary ok", hedge: hedgeAfter,
			faults:  [2]serve.BatchFault{stall(short), kill},
			replica: 0, hedged: true,
			want: [2]routeCounters{{hedgesIssued: 1}, {consecFails: 1}}},
		{name: "hedge fails, then primary fails", hedge: hedgeAfter,
			faults:  [2]serve.BatchFault{stallKill(short), kill},
			replica: 0, hedged: true, failed: true,
			want: [2]routeCounters{{hedgesIssued: 1, consecFails: 1}, {consecFails: 1}}},
		{name: "primary fails with hedge in flight, hedge ok", hedge: hedgeAfter,
			faults:  [2]serve.BatchFault{stallKill(short), stall(long)},
			replica: 1, hedged: true, retried: true,
			want: [2]routeCounters{{hedgesIssued: 1, consecFails: 1}, {hedgesWon: 1}}},
		{name: "primary fails with hedge in flight, hedge fails", hedge: hedgeAfter,
			faults:  [2]serve.BatchFault{stallKill(short), stallKill(long)},
			replica: 1, hedged: true, failed: true,
			want: [2]routeCounters{{hedgesIssued: 1, consecFails: 1}, {consecFails: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := New(Options{
				Replicas: [][]*gpu.Device{t4s(1), t4s(1)},
				Hedge:    HedgeOptions{Timeout: tc.hedge},
			})
			if err := f.Deploy("m", testCompile(nil), serve.DeployOptions{Buckets: []int{1}}); err != nil {
				t.Fatal(err)
			}
			if err := f.Warm("m"); err != nil {
				t.Fatal(err)
			}
			for rep, fault := range tc.faults {
				if fault != (serve.BatchFault{}) {
					f.InjectFault(rep, 0, 1, fault)
				}
			}
			ch, err := f.InferAsync("m", sampleInput(1), serve.InferOptions{Priority: serve.PriorityHigh})
			if err != nil {
				t.Fatal(err)
			}
			res := <-ch
			f.Close() // every attempt, loser included, has answered
			select {
			case extra := <-ch:
				t.Fatalf("double delivery: %+v", extra)
			default:
			}
			if res.Replica != tc.replica || res.Hedged != tc.hedged || res.Retried != tc.retried ||
				(res.Err != nil) != tc.failed {
				t.Errorf("delivered replica=%d hedged=%v retried=%v err=%v, want replica=%d hedged=%v retried=%v failed=%v",
					res.Replica, res.Hedged, res.Retried, res.Err, tc.replica, tc.hedged, tc.retried, tc.failed)
			}
			f.mu.Lock()
			for i, r := range f.replicas {
				got := routeCounters{r.hedgesIssued, r.hedgesWon, r.hedgesCanceled, r.retries, r.consecFails}
				if got != tc.want[i] {
					t.Errorf("replica %d counters %+v, want %+v", i, got, tc.want[i])
				}
			}
			f.mu.Unlock()
			st := f.Stats()
			wantErrs := int64(0)
			if tc.failed {
				wantErrs = 1
			}
			if st.Routed != 1 || st.Delivered != 1 || st.DeliveredErrors != wantErrs {
				t.Errorf("routed/delivered/errors = %d/%d/%d, want 1/1/%d",
					st.Routed, st.Delivered, st.DeliveredErrors, wantErrs)
			}
		})
	}
}

// TestFleetInFlightRequestsSpawnNoGoroutines pins the routing cost
// model: a request in flight is state inside its route, not a goroutine
// waiting on it. Hundreds of requests are held queued behind a gated
// compile (with a hedge timer armed on each), and the process's
// goroutine count must grow by a small constant, not with the requests.
func TestFleetInFlightRequestsSpawnNoGoroutines(t *testing.T) {
	gate := make(chan struct{})
	compile := testCompile(nil)
	gated := func(dev *gpu.Device, batch int) (*rt.Module, error) {
		<-gate
		return compile(dev, batch)
	}
	f := New(Options{
		Replicas:   [][]*gpu.Device{t4s(1), t4s(1)},
		QueueDepth: 1024,
		Hedge:      HedgeOptions{Timeout: time.Minute},
	})
	if err := f.Deploy("m", gated, serve.DeployOptions{Buckets: []int{1, 2, 4}}); err != nil {
		t.Fatal(err)
	}
	const n = 300
	before := runtime.NumGoroutine()
	chans := make([]<-chan Result, n)
	for i := range chans {
		ch, err := f.InferAsync("m", sampleInput(int64(i+1)), serve.InferOptions{})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	// The pricing compiles blocked on the gate are the only new
	// goroutines: one per bucket plus one per compile, per replica.
	if grew := runtime.NumGoroutine() - before; grew > 16 {
		t.Errorf("%d requests in flight grew the goroutine count by %d, want a small constant", n, grew)
	}
	close(gate)
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
	}
	f.Close()
	if st := f.Stats(); st.Routed != n || st.Delivered != n || st.HedgesIssued != 0 {
		t.Errorf("routed/delivered/hedges %d/%d/%d, want %d/%d/0", st.Routed, st.Delivered, st.HedgesIssued, n, n)
	}
}

// TestFleetGrowDeploysAndWarmsTenants pins the runtime-grow lifecycle:
// the new replica carries every registered tenant, warmed before it
// joins the routing set, and serves correctly.
func TestFleetGrowDeploysAndWarmsTenants(t *testing.T) {
	var compiles atomic.Int64
	f := New(Options{Replicas: [][]*gpu.Device{t4s(1)}})
	defer f.Close()
	if err := f.Deploy("m", testCompile(&compiles), serve.DeployOptions{Buckets: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Warm("m"); err != nil {
		t.Fatal(err)
	}
	before := compiles.Load()
	if before != 2 {
		t.Fatalf("warm compiled %d variants, want 2 (buckets 1 and 2)", before)
	}
	id, err := f.Grow()
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 || f.Replicas() != 2 {
		t.Fatalf("grow -> id %d, %d live replicas; want id 1 of 2", id, f.Replicas())
	}
	// Grow warms the new replica's own variants (the measurement-free
	// part is the tuning log inside the closure, exercised at the bolt
	// layer).
	if got := compiles.Load() - before; got != 2 {
		t.Errorf("grow compiled %d variants, want 2", got)
	}
	out, err := f.Infer("m", sampleInput(1), serve.InferOptions{Priority: serve.PriorityHigh})
	if err != nil || out == nil {
		t.Fatalf("infer after grow: %v", err)
	}
	st := f.Stats()
	if st.GrowEvents != 1 || !st.Replicas[1].Grown || st.Replicas[1].GrowEvents != 1 {
		t.Errorf("grow events aggregate=%d replica1 grown=%v events=%d, want 1/true/1",
			st.GrowEvents, st.Replicas[1].Grown, st.Replicas[1].GrowEvents)
	}
}

// TestFleetAutoscalePolls pins the sizing policy end to end: sustained
// queued backlog grows the fleet, a drained idle fleet shrinks back,
// and both transitions land in the stats.
func TestFleetAutoscalePolls(t *testing.T) {
	f := New(Options{
		Replicas:    [][]*gpu.Device{t4s(1)},
		BatchWindow: time.Hour, // queued rows stay queued until MaxWait
		Autoscale: AutoscaleOptions{
			GrowBacklogSeconds:   1e-15,
			ShrinkBacklogSeconds: 1e-15,
			SustainPolls:         2,
			MaxReplicas:          2,
		},
	})
	defer f.Close()
	if err := f.Deploy("m", testCompile(nil), serve.DeployOptions{Buckets: []int{1, 2, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Warm("m"); err != nil {
		t.Fatal(err)
	}
	chans := make([]<-chan Result, 3)
	for i := range chans {
		ch, err := f.InferAsync("m", sampleInput(int64(i+1)),
			serve.InferOptions{MaxWait: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	if grew, _ := f.PollAutoscale(); grew {
		t.Fatal("grew on the first high poll; sustain is 2")
	}
	grew, _ := f.PollAutoscale()
	if !grew || f.Replicas() != 2 {
		t.Fatalf("sustained backlog did not grow the fleet (grew=%v, replicas=%d)", grew, f.Replicas())
	}
	for _, ch := range chans { // drain: MaxWait dispatches the queued rows
		if res := <-ch; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if _, shrank := f.PollAutoscale(); shrank {
		t.Fatal("shrank on the first idle poll; sustain is 2")
	}
	_, shrank := f.PollAutoscale()
	if !shrank || f.Replicas() != 1 {
		t.Fatalf("idle fleet did not shrink (shrank=%v, replicas=%d)", shrank, f.Replicas())
	}
	st := f.Stats()
	if st.GrowEvents != 1 || st.ShrinkEvents != 1 {
		t.Errorf("grow/shrink events %d/%d, want 1/1", st.GrowEvents, st.ShrinkEvents)
	}
	if len(st.Replicas) != 2 || !st.Replicas[0].Live || st.Replicas[1].Live {
		t.Errorf("replica liveness %+v, want original live, grown one retired", st.Replicas)
	}
}

// TestFleetUndeployWithHedgeInFlight pins the drain path: Undeploy
// while a hedged duplicate is still running delivers exactly one
// result per request and closes cleanly (the -race CI stress variant
// lives at the repo root against the public API).
func TestFleetUndeployWithHedgeInFlight(t *testing.T) {
	f := New(Options{
		Replicas: [][]*gpu.Device{t4s(1), t4s(1)},
		Hedge:    HedgeOptions{Timeout: 5 * time.Millisecond},
	})
	if err := f.Deploy("m", testCompile(nil), serve.DeployOptions{Buckets: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Warm("m"); err != nil {
		t.Fatal(err)
	}
	// Stall both replicas' workers so the primary and its hedge are
	// both in flight when the model is undeployed.
	f.InjectFault(0, 0, 1, serve.BatchFault{StallHostDelay: 100 * time.Millisecond})
	f.InjectFault(1, 0, 1, serve.BatchFault{StallHostDelay: 100 * time.Millisecond})
	ch, err := f.InferAsync("m", sampleInput(1), serve.InferOptions{Priority: serve.PriorityHigh})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // both attempts dispatched and stalled
	if err := f.Undeploy("m"); err != nil {
		t.Fatal(err)
	}
	res, ok := <-ch
	if !ok {
		t.Fatal("result channel closed without a result")
	}
	// The dispatched batches were already in flight, so they complete
	// normally despite the undeploy.
	if res.Err != nil {
		t.Fatalf("in-flight batch should survive undeploy: %v", res.Err)
	}
	select {
	case extra, ok := <-ch:
		if ok {
			t.Fatalf("double delivery: %+v", extra)
		}
	case <-time.After(150 * time.Millisecond):
	}
	f.Close()
	st := f.Stats()
	if st.Routed != 1 || st.Delivered != 1 {
		t.Errorf("routed/delivered %d/%d, want 1/1", st.Routed, st.Delivered)
	}
	if st.HedgesCanceled != 1 {
		t.Errorf("the losing duplicate was not drained: canceled=%d", st.HedgesCanceled)
	}
}

// TestFleetClosedRejects pins the terminal state.
func TestFleetClosedRejects(t *testing.T) {
	f := New(Options{Replicas: [][]*gpu.Device{t4s(1)}})
	if err := f.Deploy("m", testCompile(nil), serve.DeployOptions{}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := f.InferAsync("m", sampleInput(1), serve.InferOptions{}); !errors.Is(err, ErrClosed) {
		t.Errorf("InferAsync after Close: %v, want ErrClosed", err)
	}
	if err := f.Deploy("m2", testCompile(nil), serve.DeployOptions{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Deploy after Close: %v, want ErrClosed", err)
	}
	if _, err := f.Grow(); !errors.Is(err, ErrClosed) {
		t.Errorf("Grow after Close: %v, want ErrClosed", err)
	}
	f.Close() // idempotent
}
