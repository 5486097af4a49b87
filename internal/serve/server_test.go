package serve

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bolt/internal/gpu"
	"bolt/internal/rt"
)

// TestServerPriorityPreemptsWindow pins the high-priority semantics: a
// tenant with a long batch window holds normal-priority stragglers,
// but the moment a high-priority request lands the pending batch
// dispatches, high first.
func TestServerPriorityPreemptsWindow(t *testing.T) {
	s := NewServer(ServerOptions{Devices: t4s(1)})
	defer s.Close()
	if err := s.Deploy("m", fakeVariant, DeployOptions{
		Buckets: []int{1, 2, 4}, BatchWindow: time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	n1, err := s.InferAsync("m", sampleInput(1), InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The window is an hour and the bucket is not full: nothing may
	// dispatch yet.
	select {
	case res := <-n1:
		t.Fatalf("normal request dispatched during window: %+v", res)
	case <-time.After(50 * time.Millisecond):
	}
	hi, err := s.InferAsync("m", sampleInput(2), InferOptions{Priority: PriorityHigh})
	if err != nil {
		t.Fatal(err)
	}
	// The high request preempts the window: both go out promptly, in
	// one batch, high first.
	deadline := time.After(2 * time.Second)
	var hiRes, n1Res Result
	select {
	case hiRes = <-hi:
	case <-deadline:
		t.Fatal("high-priority request did not preempt the batch window")
	}
	select {
	case n1Res = <-n1:
	case <-deadline:
		t.Fatal("pending normal request was not coalesced with the high dispatch")
	}
	if hiRes.Err != nil || n1Res.Err != nil {
		t.Fatalf("errors: %v %v", hiRes.Err, n1Res.Err)
	}
	if hiRes.Batch != 2 || n1Res.Batch != 2 {
		t.Errorf("batch sizes %d/%d, want both coalesced into bucket 2", hiRes.Batch, n1Res.Batch)
	}
	if hiRes.Priority != PriorityHigh || n1Res.Priority != PriorityNormal {
		t.Errorf("priorities %v/%v not propagated", hiRes.Priority, n1Res.Priority)
	}
}

// TestServerBulkWaitsForFullBucket pins the bulk semantics: a full
// largest bucket dispatches immediately, while a lone bulk request is
// held until its MaxWait deadline.
func TestServerBulkWaitsForFullBucket(t *testing.T) {
	s := NewServer(ServerOptions{Devices: t4s(1)})
	defer s.Close()
	if err := s.Deploy("m", fakeVariant, DeployOptions{
		Buckets: []int{1, 2, 4}, BatchWindow: 250 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	chans := make([]<-chan Result, 4)
	for i := range chans {
		ch, err := s.InferAsync("m", sampleInput(int64(i+1)), InferOptions{Priority: PriorityBulk})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	start := time.Now()
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Batch != 4 {
			t.Errorf("bulk request %d ran in bucket %d, want the full bucket 4", i, res.Batch)
		}
	}
	// A full bucket must not have waited out the bulk window
	// (bulkWindowFactor * 250ms = 1s).
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Errorf("full bulk bucket waited %v before dispatch", waited)
	}

	// A lone bulk request dispatches underfull once MaxWait passes.
	lone, err := s.InferAsync("m", sampleInput(9), InferOptions{
		Priority: PriorityBulk, MaxWait: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-lone:
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Batch != 1 {
			t.Errorf("lone bulk request ran in bucket %d, want 1", res.Batch)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("lone bulk request with MaxWait was never dispatched")
	}
}

// TestPickWRRProportionalShare pins the smooth weighted round-robin:
// with weights 2:1 the picks interleave proportionally (no starvation,
// no bursts) and are deterministic.
func TestPickWRRProportionalShare(t *testing.T) {
	a := &tenant{name: "a", order: 0, weight: 2}
	b := &tenant{name: "b", order: 1, weight: 1}
	var picks []string
	for i := 0; i < 6; i++ {
		picks = append(picks, pickWRR([]*tenant{a, b}).name)
	}
	got := strings.Join(picks, "")
	if got != "abaaba" {
		t.Errorf("pick sequence %q, want abaaba (smooth 2:1 interleave)", got)
	}
	// Under contention with equal weights the picks alternate strictly.
	c := &tenant{name: "c", order: 0, weight: 1}
	d := &tenant{name: "d", order: 1, weight: 1}
	picks = picks[:0]
	for i := 0; i < 4; i++ {
		picks = append(picks, pickWRR([]*tenant{c, d}).name)
	}
	if got := strings.Join(picks, ""); got != "cdcd" {
		t.Errorf("equal-weight sequence %q, want cdcd", got)
	}
}

// TestServerWeightedShareUnderContention floods two equal-cost tenants
// with very different weights and checks the heavier tenant finishes
// (its last batch completes) no later than the lighter one on the
// simulated clocks — the scheduler favors it while both contend.
func TestServerWeightedShareUnderContention(t *testing.T) {
	s := NewServer(ServerOptions{Devices: t4s(1)})
	defer s.Close()
	if err := s.Deploy("heavy", fakeVariant, DeployOptions{Buckets: []int{1, 2}, Weight: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Deploy("light", fakeVariant, DeployOptions{Buckets: []int{1, 2}, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	const per = 8
	var chans []<-chan Result
	for i := 0; i < per; i++ {
		for _, m := range []string{"heavy", "light"} {
			ch, err := s.InferAsync(m, sampleInput(int64(i+1)), InferOptions{})
			if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, ch)
		}
	}
	for _, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	hs, _ := s.ModelStats("heavy")
	ls, _ := s.ModelStats("light")
	if hs.Requests != per || ls.Requests != per {
		t.Fatalf("requests %d/%d, want %d each", hs.Requests, ls.Requests, per)
	}
	if hs.SimMakespan <= 0 || ls.SimMakespan <= 0 {
		t.Fatal("no simulated time accounted")
	}
	if hs.SimMakespan > ls.SimMakespan {
		t.Errorf("weight-3 tenant finished at %g, after weight-1 tenant at %g",
			hs.SimMakespan, ls.SimMakespan)
	}
}

// TestServerUndeploy pins the lifecycle: queued requests of an
// undeployed model are answered with ErrNotDeployed, new requests are
// rejected, other tenants are unaffected, and the aggregate stats keep
// the retired tenant's traffic.
func TestServerUndeploy(t *testing.T) {
	s := NewServer(ServerOptions{Devices: t4s(1)})
	defer s.Close()
	for _, m := range []string{"keep", "drop"} {
		if err := s.Deploy(m, fakeVariant, DeployOptions{
			Buckets: []int{1, 4}, BatchWindow: time.Hour,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Serve one request on "drop" so it has traffic to retire.
	if _, err := s.Infer("drop", sampleInput(1), InferOptions{Priority: PriorityHigh}); err != nil {
		t.Fatal(err)
	}
	// Queue a normal request that will still be waiting out its window
	// when the model goes away.
	pending, err := s.InferAsync("drop", sampleInput(2), InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let it reach the tenant queue
	if err := s.Undeploy("drop"); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-pending:
		if !errors.Is(res.Err, ErrNotDeployed) {
			t.Errorf("queued request got %v, want ErrNotDeployed", res.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued request was not drained on Undeploy")
	}
	if _, err := s.InferAsync("drop", sampleInput(3), InferOptions{}); !errors.Is(err, ErrNotDeployed) {
		t.Errorf("Infer on undeployed model = %v, want ErrNotDeployed", err)
	}
	if err := s.Undeploy("drop"); !errors.Is(err, ErrNotDeployed) {
		t.Errorf("double Undeploy = %v, want ErrNotDeployed", err)
	}
	if got := s.Models(); len(got) != 1 || got[0] != "keep" {
		t.Errorf("Models() = %v, want [keep]", got)
	}
	if _, err := s.Infer("keep", sampleInput(4), InferOptions{Priority: PriorityHigh}); err != nil {
		t.Errorf("surviving tenant broken after Undeploy: %v", err)
	}
	agg := s.Stats()
	// 2 drop requests (one served, one drained) + 1 keep request.
	if agg.Requests != 3 {
		t.Errorf("aggregate requests %d, want 3 (undeployed traffic stays counted)", agg.Requests)
	}
	if _, ok := s.ModelStats("drop"); ok {
		t.Error("ModelStats must not resolve an undeployed model")
	}
}

// TestServerWarmConcurrentJoinedErrors pins the Warm satellite: the
// requested variants compile concurrently through the CompileJobs-wide
// pool, and the error names every failed bucket.
func TestServerWarmConcurrentJoinedErrors(t *testing.T) {
	boom := errors.New("compile exploded")
	var active, peak atomic.Int32
	s := NewServer(ServerOptions{Devices: t4s(1), CompileJobs: 4})
	defer s.Close()
	err := s.Deploy("m", func(dev *gpu.Device, batch int) (*rt.Module, error) {
		cur := active.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
		active.Add(-1)
		if batch == 3 || batch == 5 {
			return nil, boom
		}
		return fakeVariant(dev, batch)
	}, DeployOptions{Buckets: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	werr := s.Warm("m", 1, 2, 3, 5)
	if werr == nil {
		t.Fatal("Warm over failing buckets returned nil")
	}
	if !errors.Is(werr, boom) {
		t.Errorf("joined error lost the cause: %v", werr)
	}
	for _, frag := range []string{"bucket 3", "bucket 5"} {
		if !strings.Contains(werr.Error(), frag) {
			t.Errorf("joined error %q does not name %q", werr, frag)
		}
	}
	if strings.Contains(werr.Error(), "bucket 1") || strings.Contains(werr.Error(), "bucket 2") {
		t.Errorf("joined error blames a healthy bucket: %v", werr)
	}
	if p := peak.Load(); p < 2 {
		t.Errorf("peak concurrent compiles %d, want >= 2 (CompileJobs-wide pool)", p)
	}
	if err := s.Warm("m", 7); !errors.Is(err, ErrNotDeployed) && err != nil {
		// Bucket 7 compiles fine; only unknown models error.
		t.Errorf("Warm on extra bucket: %v", err)
	}
	if err := s.Warm("ghost"); !errors.Is(err, ErrNotDeployed) {
		t.Errorf("Warm on unknown model = %v, want ErrNotDeployed", err)
	}
}

// TestTakeBatchExpiredFirst pins the MaxWait promise in batch
// composition: requests whose deadline has passed are drained before
// fresher, higher-priority arrivals, so a sustained stream of
// high/normal traffic cannot bypass an expired bulk request
// indefinitely. Within each pass, priority-then-FIFO order holds.
func TestTakeBatchExpiredFirst(t *testing.T) {
	now := time.Now()
	fresh, expired := now.Add(time.Hour), now.Add(-time.Millisecond)
	mk := func(pri Priority, d time.Time) *request {
		return &request{priority: pri, deadline: d}
	}
	h1 := mk(PriorityHigh, fresh)
	n1, n2 := mk(PriorityNormal, expired), mk(PriorityNormal, fresh)
	b1 := mk(PriorityBulk, expired)
	tn := &tenant{}
	tn.queues[PriorityHigh] = []*request{h1}
	tn.queues[PriorityNormal] = []*request{n1, n2}
	tn.queues[PriorityBulk] = []*request{b1}

	got := takeBatch(tn, 3, now)
	want := []*request{n1, b1, h1} // expired (priority order) first, then fresh high
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		order := func(rs []*request) (s string) {
			for _, r := range rs {
				s += r.priority.String() + " "
			}
			return
		}
		t.Fatalf("takeBatch order %v, want expired-normal expired-bulk fresh-high (got %v)",
			order(got), order(want))
	}
	if len(tn.queues[PriorityNormal]) != 1 || tn.queues[PriorityNormal][0] != n2 {
		t.Errorf("fresh normal request should remain queued: %v", tn.queues[PriorityNormal])
	}
	if len(tn.queues[PriorityHigh]) != 0 || len(tn.queues[PriorityBulk]) != 0 {
		t.Error("drained queues must be empty")
	}
}

// TestServerQueueDepthBackpressure pins the QueueDepth contract: the
// scheduler absorbs at most QueueDepth requests into its queues, the
// channel behind it holds QueueDepth more, and further producers
// block — then Close flushes everyone.
func TestServerQueueDepthBackpressure(t *testing.T) {
	const depth = 2
	s := NewServer(ServerOptions{Devices: t4s(1), QueueDepth: depth})
	if err := s.Deploy("m", fakeVariant, DeployOptions{
		Buckets: []int{1, 8}, BatchWindow: time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	// 2*depth bulk requests park without dispatching (hour-long hold);
	// these sends must not block.
	for i := 0; i < 2*depth; i++ {
		if _, err := s.InferAsync("m", sampleInput(int64(i)), InferOptions{Priority: PriorityBulk}); err != nil {
			t.Fatal(err)
		}
	}
	// The next producer must feel backpressure.
	blocked := make(chan error, 1)
	go func() {
		_, err := s.Infer("m", sampleInput(99), InferOptions{Priority: PriorityBulk})
		blocked <- err
	}()
	select {
	case err := <-blocked:
		t.Fatalf("request beyond 2x QueueDepth did not block (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	s.Close() // flushes the backlog and unblocks the producer
	select {
	case err := <-blocked:
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("blocked producer got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked producer never released after Close")
	}
}

// TestServerDuplicateDeploy pins name uniqueness and the nil-compile
// guard.
func TestServerDuplicateDeploy(t *testing.T) {
	s := NewServer(ServerOptions{Devices: t4s(1)})
	defer s.Close()
	if err := s.Deploy("m", fakeVariant, DeployOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Deploy("m", fakeVariant, DeployOptions{}); err == nil {
		t.Error("duplicate Deploy must error")
	}
	if err := s.Deploy("n", nil, DeployOptions{}); err == nil {
		t.Error("nil compile must error")
	}
	if _, err := s.InferAsync("m", sampleInput(1), InferOptions{Priority: Priority(42)}); err == nil {
		t.Error("out-of-range priority must error")
	}
}

// TestServerCloseRejectsAndFlushes pins Close across tenants: batch
// windows are cut short, every accepted request is answered, and
// post-Close calls fail with ErrClosed.
func TestServerCloseRejectsAndFlushes(t *testing.T) {
	s := NewServer(ServerOptions{Devices: t4s(2)})
	if err := s.Deploy("m", fakeVariant, DeployOptions{
		Buckets: []int{1, 8}, BatchWindow: time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	// Three bulk requests parked behind an hour-long window...
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Infer("m", sampleInput(int64(i)), InferOptions{Priority: PriorityBulk}); err != nil {
				t.Errorf("parked request: %v", err)
			}
		}(i)
	}
	time.Sleep(30 * time.Millisecond)
	// ...must all be flushed and answered by Close, promptly.
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not flush parked requests")
	}
	wg.Wait()
	s.Close() // idempotent
	if _, err := s.Infer("m", sampleInput(9), InferOptions{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Infer after Close = %v, want ErrClosed", err)
	}
	if err := s.Deploy("late", fakeVariant, DeployOptions{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Deploy after Close = %v, want ErrClosed", err)
	}
	if err := s.Warm("m"); !errors.Is(err, ErrClosed) {
		t.Errorf("Warm after Close = %v, want ErrClosed", err)
	}
}

// TestNormalizeBucketsEdgeCases is the satellite coverage for
// normalizeBuckets and ServerOptions.normalized: dedup, the implied bucket 1,
// dropped non-positive buckets, and defaults.
func TestNormalizeBucketsEdgeCases(t *testing.T) {
	cases := []struct {
		in   []int
		want string
	}{
		{nil, "[1 2 4 8]"},                  // default set
		{[]int{}, "[1 2 4 8]"},              // empty means default too
		{[]int{8, 4, 8, 0, -3}, "[1 4 8]"},  // dedup + implied 1 + dropped <= 0
		{[]int{0, -1, -100}, "[1]"},         // everything invalid leaves bucket 1
		{[]int{1, 1, 1}, "[1]"},             // explicit 1 does not duplicate
		{[]int{16}, "[1 16]"},               // bucket 1 implied below any set
		{[]int{3, 2, 5, 2, 3}, "[1 2 3 5]"}, // sorted and deduped
	}
	for _, c := range cases {
		got := fmt.Sprint(normalizeBuckets(c.in))
		if got != c.want {
			t.Errorf("normalizeBuckets(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	so := ServerOptions{QueueDepth: -1, CompileJobs: 0}.normalized()
	if so.QueueDepth != 1024 || so.CompileJobs != 1 {
		t.Errorf("ServerOptions.normalized defaults wrong: %+v", so)
	}
}

// TestLatencyPercentileEdgeCases covers the percentile math: empty
// windows, p=0, p=100, a single sample, and several priority windows
// ranked together.
func TestLatencyPercentileEdgeCases(t *testing.T) {
	empty := Stats{}
	if got := empty.LatencyPercentile(50); got != 0 {
		t.Errorf("empty window p50 = %g, want 0", got)
	}
	if got := empty.PriorityPercentile(PriorityHigh, 99); got != 0 {
		t.Errorf("empty priority window p99 = %g, want 0", got)
	}
	single := Stats{PriorityLatencies: map[Priority][]float64{PriorityNormal: {7.5}}}
	for _, p := range []float64{0, 50, 100} {
		if got := single.LatencyPercentile(p); got != 7.5 {
			t.Errorf("single sample p%g = %g, want 7.5", p, got)
		}
	}
	s := Stats{PriorityLatencies: map[Priority][]float64{
		PriorityNormal: {4, 1, 3, 2}, // unordered on purpose
	}}
	if got := s.LatencyPercentile(0); got != 1 {
		t.Errorf("p0 = %g, want the minimum 1", got)
	}
	if got := s.LatencyPercentile(100); got != 4 {
		t.Errorf("p100 = %g, want the maximum 4", got)
	}
	if got := s.LatencyPercentile(50); got != 2 {
		t.Errorf("p50 = %g, want nearest-rank 2", got)
	}
	if got := s.LatencyPercentile(-5); got != 1 {
		t.Errorf("p<0 = %g, want clamped to minimum 1", got)
	}
	if got := s.LatencyPercentile(250); got != 4 {
		t.Errorf("p>100 = %g, want clamped to maximum 4", got)
	}
	if got := s.PriorityPercentile(PriorityHigh, 50); got != 0 {
		t.Errorf("missing priority window p50 = %g, want 0", got)
	}
	// Two windows rank as one: the seven samples 1,2,3,4,10,20,30 put
	// nearest-rank p50 (rank 4) at 4 and p75 (rank 6) at 20, values
	// neither window reaches alone at that percentile.
	s.PriorityLatencies[PriorityBulk] = []float64{30, 10, 20}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 4}, {75, 20}, {100, 30}} {
		if got := s.LatencyPercentile(c.p); got != c.want {
			t.Errorf("two windows p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := s.PriorityPercentile(PriorityBulk, 100); got != 30 {
		t.Errorf("bulk p100 = %g, want 30", got)
	}
	if got := s.PriorityPercentile(PriorityNormal, 100); got != 4 {
		t.Errorf("normal p100 = %g, want 4", got)
	}
}

// TestStatsAddCoversEveryField sets every exported Stats field of o to
// a non-zero value and adds o into a zero Stats: a field that stays
// zero has no Add rule, so a field added later without one fails here.
func TestStatsAddCoversEveryField(t *testing.T) {
	var o Stats
	v := reflect.ValueOf(&o).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !v.Type().Field(i).IsExported() {
			continue
		}
		setNonZero(t, v.Type().Field(i).Name, f)
	}
	var agg Stats
	agg.Add(o)
	a := reflect.ValueOf(agg)
	for i := 0; i < a.NumField(); i++ {
		if a.Type().Field(i).IsExported() && a.Field(i).IsZero() {
			t.Errorf("Stats.%s is still zero after Add: it has no combining rule", a.Type().Field(i).Name)
		}
	}
	if !reflect.DeepEqual(agg, o) {
		t.Errorf("zero.Add(o) = %+v, want o = %+v", agg, o)
	}
}

// setNonZero fills f with a non-zero value of its kind: 1 for numbers,
// a one-element slice or map for collections (element and key filled
// recursively), every exported field for structs.
func setNonZero(t *testing.T, name string, f reflect.Value) {
	t.Helper()
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		f.SetInt(1)
	case reflect.Float64:
		f.SetFloat(1)
	case reflect.String:
		f.SetString("x")
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Slice:
		e := reflect.New(f.Type().Elem()).Elem()
		setNonZero(t, name, e)
		f.Set(reflect.Append(reflect.MakeSlice(f.Type(), 0, 1), e))
	case reflect.Map:
		k := reflect.New(f.Type().Key()).Elem()
		e := reflect.New(f.Type().Elem()).Elem()
		setNonZero(t, name, k)
		setNonZero(t, name, e)
		m := reflect.MakeMap(f.Type())
		m.SetMapIndex(k, e)
		f.Set(m)
	case reflect.Struct:
		for i := 0; i < f.NumField(); i++ {
			if f.Type().Field(i).IsExported() {
				setNonZero(t, name, f.Field(i))
			}
		}
	default:
		t.Fatalf("Stats.%s: no non-zero value for kind %s; extend setNonZero", name, f.Kind())
	}
}
