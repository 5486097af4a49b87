package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func emitSample(t *Tracer) {
	pid := t.RegisterProcess("server")
	sched := t.NewShard()
	w0 := t.NewShard()
	w1 := t.NewShard()
	var wg sync.WaitGroup
	emit := func(sh *Shard, spans []Span) {
		defer wg.Done()
		for _, sp := range spans {
			sp.Proc = pid
			sh.Emit(sp)
		}
	}
	wg.Add(3)
	go emit(sched, []Span{
		{Name: KindPlan, Cat: CatBatch, Start: 0, Bucket: 4},
		{Name: KindDispatch, Cat: CatBatch, Start: 0, Worker: 0},
		{Name: KindPlan, Cat: CatBatch, Start: 1e-3, Bucket: 2},
	})
	go emit(w0, []Span{
		{Name: KindExecute, Cat: CatBatch, Worker: 0, Start: 0, Dur: 2e-3},
		// A delivered request: the root and its four stage children.
		{Name: KindRequest, Cat: CatRequest, Req: 1, Start: 0, Dur: 2e-3,
			FormationWait: 5e-4, QueueWait: 5e-4, Execute: 1e-3},
	})
	go emit(w1, []Span{
		{Name: KindExecute, Cat: CatBatch, Worker: 1, Start: 1e-3, Dur: 2e-3},
		{Name: KindCompile, Cat: CatCompile, Dur: 5e-2, Outcome: "cold"},
	})
	wg.Wait()
}

func TestTracerCanonicalOrderDeterministic(t *testing.T) {
	export := func() []byte {
		tr := NewTracer()
		emitSample(tr)
		return tr.ExportJSON()
	}
	a := export()
	for i := 0; i < 10; i++ {
		if b := export(); !bytes.Equal(a, b) {
			t.Fatalf("export differs across identical runs:\n%s\nvs\n%s", a, b)
		}
	}
}

func TestTracerQueryAPI(t *testing.T) {
	tr := NewTracer()
	emitSample(tr)
	if got := tr.Len(); got != 11 {
		t.Fatalf("Len = %d, want 11", got)
	}
	if got := len(tr.ByKind(KindPlan)); got != 2 {
		t.Fatalf("ByKind(plan) = %d spans, want 2", got)
	}
	reqs := tr.ByRequest(1, 1)
	if len(reqs) != 5 {
		t.Fatalf("ByRequest = %+v, want the request span and its four children", reqs)
	}
	if got := len(tr.ByKind(KindRequest)); got != 1 {
		t.Fatalf("ByKind(request) = %d spans, want 1", got)
	}
	spans := tr.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("spans not sorted by start: %v after %v", spans[i].Start, spans[i-1].Start)
		}
	}
}

func TestTracerShardCapacityDrops(t *testing.T) {
	tr := NewTracer()
	tr.shardCap = 4
	sh := tr.NewShard()
	for i := 0; i < 10; i++ {
		sh.Emit(Span{Name: KindExecute, Start: float64(i)})
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want cap 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
}

// TestTracerCapCountsStageChildren pins the cap semantics of a
// delivered request: its root and four stage children are checked
// against the shard cap one by one, so a shard with room for three
// keeps three and drops two.
func TestTracerCapCountsStageChildren(t *testing.T) {
	tr := NewTracer()
	tr.shardCap = 3
	tr.NewShard().Emit(Span{Name: KindRequest, Cat: CatRequest, Req: 1, Dur: 3e-3,
		FormationWait: 1e-3, QueueWait: 1e-3, Execute: 1e-3})
	if got := tr.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	spans := tr.Spans()
	if spans[0].Name != KindEnqueue || spans[1].Name != KindRequest || spans[2].Name != KindDispatch {
		t.Fatalf("kept %v %v %v, want enqueue, request, dispatch", spans[0].Name, spans[1].Name, spans[2].Name)
	}
}

// TestTracerQueriesWhileEmitting reads the tracer while a worker
// appends to its shard: the query and the export see a prefix of each
// shard (run with -race).
func TestTracerQueriesWhileEmitting(t *testing.T) {
	tr := NewTracer()
	sh := tr.NewShard()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(1); i <= 2000; i++ {
			sh.Emit(Span{Name: KindRequest, Cat: CatRequest, Req: i, Start: float64(i), Dur: 3,
				FormationWait: 1, QueueWait: 1, Execute: 1})
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if n := len(tr.Spans()); n%5 != 0 {
			t.Fatalf("Spans saw %d spans, not whole requests", n)
		}
		if !json.Valid(tr.ExportJSON()) {
			t.Fatal("export is not valid JSON")
		}
	}
	if got := tr.Len(); got != 10000 {
		t.Fatalf("Len = %d, want 10000", got)
	}
}

// TestTracerExportSchema validates the Chrome trace-event JSON shape
// that Perfetto expects: a traceEvents array of M metadata and X
// complete events with pid/tid/ts, compile tracks laid out
// sequentially.
func TestTracerExportSchema(t *testing.T) {
	tr := NewTracer()
	emitSample(tr)
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(tr.ExportJSON(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.Unit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.Unit)
	}
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "M":
			meta++
			if ev["name"] != "process_name" && ev["name"] != "thread_name" {
				t.Fatalf("unexpected metadata event %v", ev)
			}
		case "X":
			complete++
			for _, k := range []string{"name", "ts", "dur", "pid", "tid"} {
				if _, ok := ev[k]; !ok {
					t.Fatalf("complete event missing %q: %v", k, ev)
				}
			}
			if ts := ev["ts"].(float64); ts < 0 {
				t.Fatalf("negative ts: %v", ev)
			}
			if dur := ev["dur"].(float64); dur < 0 {
				t.Fatalf("negative dur: %v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ph)
		}
	}
	if meta == 0 || complete != 11 {
		t.Fatalf("got %d metadata and %d complete events, want >0 and 11", meta, complete)
	}
}
