package obs

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// goldenSpans emits one span of every kind the serving stack records,
// with every conditional key both present and left out, onto a server
// process and a fleet process. Two pairs tie on everything but a
// rendered string: requests 9 and 10 ("req 10" sorts first) and two
// warm compiles ("bucket=16" sorts before "bucket=2").
func goldenSpans(t *Tracer) {
	srv := t.RegisterProcess("server")
	flt := t.RegisterProcess("fleet")
	sched, compile, w0, w1, router := t.NewShard(), t.NewShard(), t.NewShard(), t.NewShard(), t.NewShard()

	sched.Emit(Span{Name: KindPlan, Cat: CatBatch, Proc: srv, Start: 1e-4,
		Model: "m", Mode: "continuous+padded", Pending: 5, Rows: 3, Bucket: 4,
		StrictFinish: 2.5e-4, PaddedFinish: 2.25e-4})
	sched.Emit(Span{Name: KindPlan, Cat: CatBatch, Proc: srv, Start: 3e-4,
		Model: "m", Mode: "strict", Pending: 1, Rows: 1, Bucket: 1,
		StrictFinish: math.Inf(1)})
	sched.Emit(Span{Name: KindDispatch, Cat: CatBatch, Proc: srv, Start: 1e-4,
		Model: "m", Bucket: 4, Rows: 3, Worker: 0, Class: "T4",
		EFTCosts: "T4=0.000125,A100=4.5e-05", Finish: 2.25e-4})
	// Every class failed its compile: the finish is +Inf and left out.
	sched.Emit(Span{Name: KindDispatch, Cat: CatBatch, Proc: srv, Start: 3e-4,
		Model: "m", Bucket: 1, Rows: 1, Worker: 1, Class: "T4",
		EFTCosts: "T4=+Inf", Finish: math.Inf(1)})

	w0.Emit(Span{Name: KindExecute, Cat: CatBatch, Proc: srv, Start: 1e-4, Dur: 1.25e-4,
		Model: "m", Bucket: 4, Rows: 3, Worker: 0, Device: "T4"})
	w1.Emit(Span{Name: KindExecute, Cat: CatBatch, Proc: srv, Start: 3e-4, Dur: 5e-5,
		Model: "m", Bucket: 1, Rows: 1, Worker: 1, Device: "T4", Failed: true})

	compile.Emit(Span{Name: KindCompile, Cat: CatCompile, Proc: srv, Dur: 1.5,
		Model: "m", Device: "T4", Bucket: 4, Outcome: "cold", Measurements: 12,
		ModeledSeconds: 1.25e-4})
	compile.Emit(Span{Name: KindCompile, Cat: CatCompile, Proc: srv,
		Model: "m", Device: "T4", Bucket: 2, Outcome: "warm", CacheHits: 3,
		ModeledSeconds: 7.5e-5})
	compile.Emit(Span{Name: KindCompile, Cat: CatCompile, Proc: srv,
		Model: "m", Device: "T4", Bucket: 16, Outcome: "warm", CacheHits: 3,
		ModeledSeconds: 6e-4})
	compile.Emit(Span{Name: KindCompile, Cat: CatCompile, Proc: srv, Dur: 0.25,
		Model: "m", Device: "A100", Bucket: 1, Outcome: "predicted", CacheHits: 1,
		PredictedWorkloads: 2, ModeledSeconds: 3e-5})
	compile.Emit(Span{Name: KindCompile, Cat: CatCompile, Proc: srv,
		Model: "m", Device: "A100", Bucket: 8, Outcome: "error"})

	delivered := func(sh *Shard, req int64, worker int, start, f, q, e float64) {
		sh.Emit(Span{Name: KindRequest, Cat: CatRequest, Proc: srv, Req: req, Start: start, Dur: f + q + e,
			Model: "m", Priority: "high", Bucket: 4, Worker: worker, Device: "T4",
			FormationWait: f, QueueWait: q, Execute: e})
	}
	delivered(w0, 9, 0, 0, 1e-4, 0, 1.25e-4)
	delivered(w0, 10, 0, 0, 1e-4, 0, 1.25e-4)
	delivered(w0, 7, 0, 5e-5, 5e-5, 0, 1.25e-4)
	w1.Emit(Span{Name: KindRequest, Cat: CatRequest, Proc: srv, Req: 11, Start: 2e-4, Dur: 1.5e-4,
		Model: "m", Priority: "normal", Bucket: 1, Worker: 1, Device: "T4", Failed: true})

	router.Emit(Span{Name: KindRoute, Cat: CatFleet, Proc: flt, Start: 0, Dur: 2.25e-4,
		Model: "m", Replica: 1, Hedged: true})
	// The hedge's duplicate (to) won: the original (from) lost.
	router.Emit(Span{Name: KindHedge, Cat: CatFleet, Proc: flt, Start: 0, Dur: 2.25e-4,
		Model: "m", From: 0, To: 1, Replica: 1})
	router.Emit(Span{Name: KindRoute, Cat: CatFleet, Proc: flt, Start: 1e-4, Dur: 2e-4,
		Model: "m", Replica: 0, Hedged: true})
	// The original (from) won: the duplicate (to) lost.
	router.Emit(Span{Name: KindHedge, Cat: CatFleet, Proc: flt, Start: 1e-4, Dur: 2e-4,
		Model: "m", From: 0, To: 2, Replica: 0})
	router.Emit(Span{Name: KindRoute, Cat: CatFleet, Proc: flt, Start: 2e-4, Dur: 4e-4,
		Model: "m", Replica: 1, Retried: true})
	router.Emit(Span{Name: KindRetry, Cat: CatFleet, Proc: flt, Start: 2e-4, Dur: 4e-4,
		Model: "m", From: 0, To: 1, Replica: 1})
	router.Emit(Span{Name: KindRoute, Cat: CatFleet, Proc: flt, Start: 5e-4, Dur: 1e-4,
		Model: "m", Replica: 2, Failed: true})
}

// TestExportGolden pins the export of every span kind and every
// conditional key against committed text, so a change to how spans
// are stored or rendered cannot move a byte unnoticed.
func TestExportGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/export_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	goldenSpans(tr)
	if got := tr.ExportJSON(); !bytes.Equal(got, want) {
		t.Fatalf("export differs from testdata/export_golden.json:\n%s", got)
	}
}
