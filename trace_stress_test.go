package bolt_test

// Observability validation at the public API (PR 10): a traced server
// and a traced fleet must export valid Chrome trace-event JSON with
// every lifecycle span kind present, per-request stage durations that
// sum bit-exactly to the end-to-end latency, and — for a serial,
// single-worker run — byte-identical exports across two seeded runs
// through the real compilation pipeline. Run with -race (these are in
// the CI serving-stress list).

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"bolt"
)

// serialTracedRun drives a one-worker server through the real compile
// pipeline with strictly serial requests, so the whole span tree —
// compile spans included — depends only on modeled costs.
func serialTracedRun(t *testing.T) *bolt.Tracer {
	t.Helper()
	tr := bolt.NewTracer()
	srv := serveOne(t, buildTiny1(), bolt.ServerOptions{Workers: 1, Trace: tr, TraceLabel: "server"},
		bolt.DeployOptions{Buckets: []int{1, 2}})
	defer srv.Close()
	if err := srv.Warm("m"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		in := bolt.NewTensor(bolt.FP16, 1, 8, 16, 16)
		in.FillRandom(int64(i+1), 1)
		if _, err := srv.Infer("m", map[string]*bolt.Tensor{"image": in}, bolt.InferOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestTraceServingExportStable pins the end-to-end determinism story:
// two seeded serial runs through the real tuning pipeline export the
// same bytes, the export parses as Chrome trace-event JSON, and every
// lifecycle span kind appears.
func TestTraceServingExportStable(t *testing.T) {
	a := serialTracedRun(t).ExportJSON()
	if b := serialTracedRun(t).ExportJSON(); !bytes.Equal(a, b) {
		t.Fatalf("trace differs across identical seeded runs:\n%s\nvs\n%s", a, b)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	kinds := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			kinds[ev["name"].(string)]++
		}
	}
	for _, want := range []string{"request", "enqueue", "plan", "compile", "dispatch", "execute", "deliver"} {
		if kinds[want] == 0 {
			t.Errorf("no %q spans in the export (kinds: %v)", want, kinds)
		}
	}
}

// checkExportDigest pins an export's bytes across refactors of the
// tracer and its callers: the determinism tests compare two runs of
// the same code, this one compares against the bytes recorded before.
func checkExportDigest(t *testing.T, got []byte, wantLen int, wantSHA string) {
	t.Helper()
	sum := sha256.Sum256(got)
	if len(got) != wantLen || hex.EncodeToString(sum[:]) != wantSHA {
		t.Fatalf("export is %d B sha256 %x, want %d B sha256 %s:\n%s", len(got), sum, wantLen, wantSHA, got)
	}
}

// TestTraceServingGoldenDigest pins serialTracedRun's export bytes.
func TestTraceServingGoldenDigest(t *testing.T) {
	checkExportDigest(t, serialTracedRun(t).ExportJSON(), 6315,
		"68d6f0e92c332a198019469a9266dc0ac16285ef894ee14cabf89d74ed0d2fd8")
}

// TestTraceFleetGoldenDigest pins a serial fleet run's export bytes: a
// scripted kill fails replica 0's first batch (a failed execute and a
// failed request span), the router retries it on replica 1 (a retry
// span), and every delivery records a route span.
func TestTraceFleetGoldenDigest(t *testing.T) {
	tr := bolt.NewTracer()
	flt, err := bolt.NewFleet(bolt.T4(), bolt.FleetOptions{
		Replicas: []bolt.FleetReplica{{Workers: 1}, {Workers: 1}},
		Hedge:    bolt.HedgeOptions{BacklogSeconds: 1e-12},
		Trace:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := flt.Deploy("m", buildTiny1(), bolt.DeployOptions{Buckets: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := flt.Warm("m"); err != nil {
		t.Fatal(err)
	}
	flt.InjectFault(0, 0, 1, bolt.BatchFault{Err: bolt.ErrInjectedKill})
	for i := 0; i < 6; i++ {
		in := bolt.NewTensor(bolt.FP16, 1, 8, 16, 16)
		in.FillRandom(int64(i+1), 1)
		if _, err := flt.Infer("m", map[string]*bolt.Tensor{"image": in}, bolt.InferOptions{
			SimArrival: float64(i) * 1e-4,
		}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if err := flt.Close(); err != nil {
		t.Fatal(err)
	}
	checkExportDigest(t, tr.ExportJSON(), 11830,
		"a0bda953b1cbf4a6ce33fef7a2ca6427fc5f1e460dc8dbafc2cb24afc994d6d2")
}

// TestTraceServerResultBreakdown floods a traced multi-tenant server
// and checks the public Result decomposition: QueueWait +
// ExecuteSeconds must equal SimLatency bit-for-bit on every delivered
// request, and the Snapshot exposition must account for all of them.
func TestTraceServerResultBreakdown(t *testing.T) {
	tr := bolt.NewTracer()
	srv, err := bolt.NewServer(bolt.T4(), bolt.ServerOptions{
		Workers: 2, BatchWindow: 2 * time.Millisecond, Trace: tr,
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
	const n = 12
	chans := make([]<-chan bolt.ServeResult, n)
	for i := 0; i < n; i++ {
		in := bolt.NewTensor(bolt.FP16, 1, 8, 16, 16)
		in.FillRandom(int64(i+1), 1)
		ch, err := srv.InferAsync("m", map[string]*bolt.Tensor{"image": in}, bolt.InferOptions{
			SimArrival: float64(i) * 1e-4,
		})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if got := res.QueueWait + res.ExecuteSeconds; got != res.SimLatency {
			t.Errorf("request %d: QueueWait (%v) + ExecuteSeconds (%v) = %v != SimLatency %v",
				i, res.QueueWait, res.ExecuteSeconds, got, res.SimLatency)
		}
	}
	snap := srv.Snapshot()
	if !strings.Contains(snap, "requests_total 12") {
		t.Errorf("Snapshot does not account 12 requests:\n%s", snap)
	}
	if !strings.Contains(snap, `stage_seconds_bucket{stage="queue_wait"`) {
		t.Errorf("Snapshot missing queue_wait histogram:\n%s", snap)
	}
	if got := len(tr.ByKind("request")); got != n {
		t.Errorf("%d request spans, want %d", got, n)
	}
}

// TestTraceFleetSpans drives a traced two-replica fleet through a
// scripted kill (answered by a retry) and an immediate-hedge policy:
// the export must carry route spans for every delivered request plus
// hedge and retry spans, all nested on valid JSON.
func TestTraceFleetSpans(t *testing.T) {
	tr := bolt.NewTracer()
	flt, err := bolt.NewFleet(bolt.T4(), bolt.FleetOptions{
		Replicas:    []bolt.FleetReplica{{Workers: 1}, {Workers: 1}},
		BatchWindow: time.Millisecond,
		// Any backlog at all hedges at placement time, so the flood below
		// deterministically issues hedges once the first batch commits.
		Hedge: bolt.HedgeOptions{BacklogSeconds: 1e-12},
		Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := flt.Deploy("m", buildTiny1(), bolt.DeployOptions{Buckets: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := flt.Warm("m"); err != nil {
		t.Fatal(err)
	}
	// The first batch on replica 0's worker dies; the router must retry
	// its requests on replica 1.
	flt.InjectFault(0, 0, 1, bolt.BatchFault{Err: bolt.ErrInjectedKill})
	const n = 10
	chans := make([]<-chan bolt.FleetResult, n)
	for i := 0; i < n; i++ {
		in := bolt.NewTensor(bolt.FP16, 1, 8, 16, 16)
		in.FillRandom(int64(i+1), 1)
		ch, err := flt.InferAsync("m", map[string]*bolt.Tensor{"image": in}, bolt.InferOptions{
			SimArrival: float64(i) * 1e-4,
		})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	var retried, hedged int
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if got := res.QueueWait + res.ExecuteSeconds; got != res.SimLatency {
			t.Errorf("request %d: breakdown sum %v != SimLatency %v", i, got, res.SimLatency)
		}
		if res.Retried {
			retried++
		}
		if res.Hedged {
			hedged++
		}
	}
	if err := flt.Close(); err != nil {
		t.Fatal(err)
	}
	if retried == 0 {
		t.Error("scripted kill produced no retried deliveries")
	}
	if got := len(tr.ByKind("route")); got != n {
		t.Errorf("%d route spans, want %d", got, n)
	}
	if got := len(tr.ByKind("retry")); got == 0 {
		t.Error("no retry spans recorded")
	}
	if hedged > 0 && len(tr.ByKind("hedge")) == 0 {
		t.Error("hedged deliveries but no hedge spans recorded")
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr.ExportJSON(), &doc); err != nil {
		t.Fatalf("fleet export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("fleet export is empty")
	}
	snap := flt.Snapshot()
	if !strings.Contains(snap, "fleet_retries_total") || strings.Contains(snap, "fleet_retries_total 0") {
		t.Errorf("fleet Snapshot does not count the retry:\n%s", snap)
	}
	if !strings.Contains(snap, "fleet_delivered_total 10") {
		t.Errorf("fleet Snapshot missing delivered counter:\n%s", snap)
	}
}
