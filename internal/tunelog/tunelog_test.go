package tunelog

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bolt/internal/costmodel"
	"bolt/internal/cutlass"
	"bolt/internal/tensor"
)

func TestLookupRecord(t *testing.T) {
	l := New()
	k := GemmKey(1280, 3072, 768, tensor.FP16, "t4")
	if _, ok := l.Lookup(k); ok {
		t.Fatal("empty log hit")
	}
	l.Record(k, Entry{TimeSeconds: 1e-4, Trials: 2000})
	e, ok := l.Lookup(k)
	if !ok || e.Trials != 2000 {
		t.Fatal("recorded entry not found")
	}
	// A different shape must miss — the dynamic-shape failure mode.
	if _, ok := l.Lookup(GemmKey(1281, 3072, 768, tensor.FP16, "t4")); ok {
		t.Error("near-miss shape must not hit")
	}
	// A different device must miss.
	if _, ok := l.Lookup(GemmKey(1280, 3072, 768, tensor.FP16, "a100")); ok {
		t.Error("different device must not hit")
	}
	if l.Hits != 1 || l.Misses != 3 {
		t.Errorf("hits %d misses %d, want 1/3", l.Hits, l.Misses)
	}
	if l.HitRate() != 0.25 {
		t.Errorf("hit rate %f", l.HitRate())
	}
}

// TestDTypeDoesNotCollide: an FP16 and an FP32 GEMM of the same shape
// are different tuning tasks and must not share a cache entry.
func TestDTypeDoesNotCollide(t *testing.T) {
	l := New()
	l.Record(GemmKey(1024, 1024, 1024, tensor.FP16, "t4"), Entry{TimeSeconds: 1e-4})
	if _, ok := l.Lookup(GemmKey(1024, 1024, 1024, tensor.FP32, "t4")); ok {
		t.Error("FP32 lookup hit an FP16 entry")
	}
	if _, ok := l.Lookup(GemmKey(1024, 1024, 1024, tensor.FP16, "t4")); !ok {
		t.Error("same-dtype lookup must hit")
	}
}

// TestConvShapeDoesNotAlias: two conv shapes with identical
// implicit-GEMM projections are distinct tasks. (N=2,H=8 vs N=8,H=4
// with matching channel counts both project to the same (M,N,K).)
func TestConvShapeDoesNotAlias(t *testing.T) {
	a := cutlass.Conv1x1(2, 8, 8, 64, 32)
	b := cutlass.Conv1x1(8, 4, 4, 64, 32)
	am, an, ak := a.ImplicitGemm()
	bm, bn, bk := b.ImplicitGemm()
	if am != bm || an != bn || ak != bk {
		t.Fatalf("test premise broken: projections differ (%d,%d,%d) vs (%d,%d,%d)", am, an, ak, bm, bn, bk)
	}
	l := New()
	l.Record(ConvKey(a, tensor.FP16, "t4"), Entry{TimeSeconds: 1e-4})
	if _, ok := l.Lookup(ConvKey(b, tensor.FP16, "t4")); ok {
		t.Error("distinct conv shapes with equal implicit-GEMM dims must not alias")
	}
	if _, ok := l.Lookup(ConvKey(a, tensor.FP16, "t4")); !ok {
		t.Error("identical conv shape must hit")
	}
}

func TestVersionStaleness(t *testing.T) {
	l := New()
	k := GemmKey(512, 512, 512, tensor.FP16, "t4")
	l.Record(k, Entry{TimeSeconds: 1e-5, Trials: 900})
	// Tuner upgrade: old entries stop matching and count as stale.
	l.CurrentVersion = 2
	if _, ok := l.Lookup(k); ok {
		t.Fatal("stale entry served after version bump")
	}
	if l.StaleHits != 1 {
		t.Errorf("stale hits %d, want 1 (the maintenance-burden signal)", l.StaleHits)
	}
	// Re-recording at the new version restores hits.
	l.Record(k, Entry{TimeSeconds: 9e-6, Trials: 900})
	if _, ok := l.Lookup(k); !ok {
		t.Error("re-tuned entry must hit")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	l := New()
	cfg := cutlass.GemmConfig{
		TB:     cutlass.Shape3{M: 128, N: 128, K: 32},
		Warp:   cutlass.Shape3{M: 64, N: 64, K: 32},
		Inst:   cutlass.Shape3{M: 16, N: 8, K: 8},
		Stages: 2, SwizzleLog: 2, AlignA: 8, AlignB: 8, AlignC: 8,
	}
	l.Record(GemmKey(1024, 1024, 1024, tensor.FP16, "t4"),
		Entry{Config: cfg, TimeSeconds: 3e-4, Trials: 2000})
	l.Record(ConvKey(cutlass.Conv3x3(32, 56, 56, 64, 64, 1, 1), tensor.FP16, "t4"),
		Entry{TimeSeconds: 6e-4, Trials: 900})
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	l2 := New()
	if err := l2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 2 {
		t.Fatalf("loaded %d entries, want 2", l2.Len())
	}
	e, ok := l2.Lookup(GemmKey(1024, 1024, 1024, tensor.FP16, "t4"))
	if !ok || e.TimeSeconds != 3e-4 {
		t.Error("round-tripped entry wrong")
	}
	if e.Config != cfg {
		t.Errorf("config did not round-trip: %+v", e.Config)
	}
	if err := l2.Load(bytes.NewBufferString("not json")); err == nil {
		t.Error("corrupt database must error")
	}

	// A file of an older build whose entry carries a "schedule" (the
	// field the baseline's entries once had) still loads its entries.
	old := New()
	doc := `{"entries":[{"key":{"kind":"gemm","m":8,"n":8,"k":8,"dtype":"float16","device":"t4","version":1},` +
		`"entry":{"schedule":{"TileM":64,"TileN":64},"time_seconds":2e-5,"trials":900}}]}`
	if err := old.Load(bytes.NewBufferString(doc)); err != nil {
		t.Fatalf("a file with a schedule entry: %v", err)
	}
	if e, ok := old.Lookup(GemmKey(8, 8, 8, tensor.FP16, "t4")); !ok || e.TimeSeconds != 2e-5 || e.Trials != 900 {
		t.Errorf("schedule entry loaded as %+v, %v", e, ok)
	}
}

func TestConcurrentAccess(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := GemmKey(64*i, 64, 64, tensor.FP16, "t4")
			l.Record(k, Entry{TimeSeconds: 1e-6})
			l.Lookup(k)
			l.Lookup(GemmKey(1, 2, 3, tensor.FP16, "t4"))
		}(i)
	}
	wg.Wait()
	if l.Len() != 16 || l.Hits != 16 || l.Misses != 16 {
		t.Errorf("concurrent accounting wrong: len %d hits %d misses %d", l.Len(), l.Hits, l.Misses)
	}
}

func TestMergeMemoryWins(t *testing.T) {
	k := GemmKey(128, 256, 512, tensor.FP16, "t4")
	k2 := GemmKey(64, 64, 64, tensor.FP16, "t4")

	// The "file": an external writer's database with k (older result)
	// and k2 (a key we do not have).
	ext := New()
	ext.Record(k, Entry{TimeSeconds: 2e-6, Trials: 2})
	ext.Record(k2, Entry{TimeSeconds: 3e-6, Trials: 3})
	var buf bytes.Buffer
	if err := ext.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fileBytes := buf.Bytes()

	// Persist's merge: our fresher entry for k must survive, k2 must be
	// added.
	l := New()
	l.Record(k, Entry{TimeSeconds: 1e-6, Trials: 1})
	if err := l.ingest(fileBytes, true); err != nil {
		t.Fatal(err)
	}
	if e, ok := l.Lookup(k); !ok || e.Trials != 1 {
		t.Errorf("Merge clobbered the in-memory entry: %+v", e)
	}
	if e, ok := l.Lookup(k2); !ok || e.Trials != 3 {
		t.Errorf("Merge did not add the missing key: %+v", e)
	}

	// Load is the opposite direction: file entries win.
	l2 := New()
	l2.Record(k, Entry{TimeSeconds: 1e-6, Trials: 1})
	if err := l2.Load(bytes.NewReader(fileBytes)); err != nil {
		t.Fatal(err)
	}
	if e, ok := l2.Lookup(k); !ok || e.Trials != 2 {
		t.Errorf("Load must prefer file entries: %+v", e)
	}
}

// trainedModel builds a small predictor with enough structure to fit.
func trainedModel(scale float64) *costmodel.Predictor {
	p := costmodel.NewPredictor(1)
	for g := 0; g < 4; g++ {
		for i := 0; i < 16; i++ {
			x := float64(i + g)
			p.Observe(measurement(fmt.Sprintf("g%d", g), i, scale*(2*x-1)))
		}
	}
	p.Fit()
	return p
}

func TestSaveLoadRoundTripsModel(t *testing.T) {
	l := New()
	l.Record(GemmKey(64, 64, 64, tensor.FP16, "T4"), Entry{TimeSeconds: 1e-6, Trials: 5})
	l.Model = trainedModel(1)
	if !l.Model.Trained() {
		t.Fatal("setup: model did not train")
	}
	wantConf := l.Model.Confidence()

	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	warm := New()
	if err := warm.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if warm.Model == nil || !warm.Model.Trained() {
		t.Fatal("loaded log must carry a trained model")
	}
	if got := warm.Model.Confidence(); got != wantConf {
		t.Errorf("model confidence changed across save/load: %v != %v", got, wantConf)
	}
	if warm.Model.Len() != l.Model.Len() {
		t.Errorf("observation count changed: %d != %d", warm.Model.Len(), l.Model.Len())
	}

	// Merge direction: observations union and the model refits.
	merged := New()
	merged.Model = trainedModel(1)
	if err := merged.ingest(buf.Bytes(), true); err != nil {
		t.Fatal(err)
	}
	if merged.Model.Len() != l.Model.Len() {
		t.Errorf("merging identical observations must dedup: %d != %d", merged.Model.Len(), l.Model.Len())
	}
}

func TestLoadRejectsBareArray(t *testing.T) {
	// The format's first version was a bare entry array with no model.
	// No reader accepts it any more: Load and the merge fail and leave the
	// log as it was.
	bare := `[
  {"key": {"kind": "gemm", "m": 64, "n": 64, "k": 64, "dtype": "float16", "device": "T4", "version": 1},
   "entry": {"time_seconds": 2.5e-06, "trials": 7}}
]`
	l := New()
	if err := l.Load(strings.NewReader(bare)); err == nil {
		t.Error("Load accepted a bare entry array")
	}
	if err := l.ingest([]byte(bare), true); err == nil {
		t.Error("the merge accepted a bare entry array")
	}
	if l.Len() != 0 {
		t.Errorf("rejected file left %d entries in the log", l.Len())
	}
}

func TestPredictedEntryRoundTrips(t *testing.T) {
	l := New()
	k := GemmKey(128, 128, 128, tensor.FP16, "T4")
	l.Record(k, Entry{TimeSeconds: 3e-6, Trials: 0, Predicted: true})
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	l2 := New()
	if err := l2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	e, ok := l2.Lookup(k)
	if !ok || !e.Predicted {
		t.Errorf("predicted flag lost across save/load: %+v ok=%v", e, ok)
	}
}

// The model a Load leaves fits on first use, over the rows it loaded:
// observations made in between wait for the next Fit, as they did when
// Load fitted at once.
func TestLoadedModelFitsTheLoadedRowsOnFirstUse(t *testing.T) {
	var file bytes.Buffer
	if err := richLog().Save(&file); err != nil {
		t.Fatal(err)
	}
	l := New()
	if err := l.Load(bytes.NewReader(file.Bytes())); err != nil {
		t.Fatal(err)
	}
	loaded := costmodel.NewPredictor(1)
	loaded.IngestRows(l.Model.State().Obs)
	loaded.Fit()
	for i := 0; i < 40; i++ {
		l.Model.Observe(measurement(fmt.Sprintf("late%d", i%4), i, 0.3*float64(i)))
	}
	if got, want := l.Model.Confidence(), loaded.Confidence(); got != want {
		t.Errorf("first-use confidence %v, want %v from the loaded rows alone", got, want)
	}
	got, want := weightsOf(l.Model, costmodel.NumFeatures), weightsOf(loaded, costmodel.NumFeatures)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("first-use weight %d differs from the fit of the loaded rows", i)
		}
	}

	// An explicit Fit takes in the later rows.
	l.Model.Fit()
	all := costmodel.NewPredictor(1)
	all.IngestRows(l.Model.State().Obs)
	all.Fit()
	sameModel(t, l.Model, all, "a refitted loaded model")
}

// Goroutines that first use a freshly loaded model at once, while
// others keep observing, all see the weights of the loaded rows.
func TestLoadedModelConcurrentFirstUse(t *testing.T) {
	var file bytes.Buffer
	if err := richLog().Save(&file); err != nil {
		t.Fatal(err)
	}
	load := func() *Log {
		l := New()
		if err := l.Load(bytes.NewReader(file.Bytes())); err != nil {
			t.Fatal(err)
		}
		return l
	}
	ref := load().Model
	wantConf, wantW := ref.Confidence(), weightsOf(ref, 5)

	l := load()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 4 {
			case 0:
				if w := weightsOf(l.Model, 5); !reflect.DeepEqual(w, wantW) {
					t.Error("a concurrent first Predict saw other weights")
				}
			case 1:
				if c := l.Model.Confidence(); c != wantConf {
					t.Errorf("a concurrent first Confidence read %v, want %v", c, wantConf)
				}
			case 2:
				if !l.Model.Trained() {
					t.Error("a concurrent first Trained read false")
				}
			case 3:
				for i := 0; i < 20; i++ {
					l.Model.Observe(measurement(fmt.Sprintf("g%d", g), i, float64(i)))
				}
			}
		}(g)
	}
	wg.Wait()
}
