package tunelog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"bolt/internal/costmodel"
	"bolt/internal/cutlass"
	"bolt/internal/tensor"
)

// headLog and headSave are the file format and encoder as they were
// before the model was embedded as plain rows: the predictor
// marshalled itself (MarshalJSON, compacted into the document, then
// the whole document indented) and the sort rendered both keys on
// every comparison. Save must keep writing these bytes.
type headLog struct {
	Entries []jsonEntry          `json:"entries"`
	Model   *costmodel.Predictor `json:"model,omitempty"`
}

func headSave(l *Log, w io.Writer) error {
	rows := make([]jsonEntry, 0, len(l.entries))
	for k, e := range l.entries {
		rows = append(rows, jsonEntry{Key: k, Entry: e})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key.String() < rows[j].Key.String() })
	out := headLog{Entries: rows}
	if l.Model != nil && l.Model.Len() > 0 {
		out.Model = l.Model
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// headLoad is the old two-step load of a file's model: decode it into
// a predictor of its own (which fits), then ingest that predictor into
// the log's (which fits again).
func headLoad(t *testing.T, file []byte) *costmodel.Predictor {
	t.Helper()
	var db headLog
	if err := json.Unmarshal(file, &db); err != nil {
		t.Fatal(err)
	}
	p := costmodel.NewPredictor(1)
	p.Ingest(db.Model)
	return p
}

// richLog holds what a real log holds: GEMM and conv entries (names
// that sort across both kinds), a predicted entry, and a model trained
// on awkward floats, observed in a scrambled order.
func richLog() *Log {
	l := New()
	for i, m := range []int{512, 64, 1280, 8} {
		l.Record(GemmKey(m, 3072, 768, tensor.FP16, "Tesla T4"), Entry{
			Config:      cutlass.GemmConfig{TB: cutlass.Shape3{M: 128, N: 64 << (i % 2), K: 32}, Stages: 2 + i, AlignA: 8},
			TimeSeconds: 1e-5 / float64(3+i), Trials: 40 + i})
	}
	for i, oc := range []int{256, 64, 2048} {
		s := cutlass.ConvShape{N: 1, H: 14, W: 14, IC: 1024 >> i, OC: oc, KH: 1 + 2*(i%2), KW: 1 + 2*(i%2),
			StrideH: 1, StrideW: 1, PadH: i % 2, PadW: i % 2}
		l.Record(ConvKey(s, tensor.FP16, "Tesla T4"), Entry{TimeSeconds: math.Pi * 1e-6 * float64(i+1), Trials: 70})
	}
	l.Record(GemmKey(8, 8, 8, tensor.INT8, "A100"), Entry{TimeSeconds: 3e-7, Predicted: true})
	for i := 0; i < 160; i++ {
		j := (i * 37) % 160 // a permutation: 37 and 160 are coprime
		x := float64(j%20) / 7
		l.Model.Observe(fmt.Sprintf("conv<%d>&gemm", j/20),
			[]float64{1, x, x * x, math.Log1p(x), 1 / (1 + x)}, math.Log(1e-6*(1+x*x))+0.01*math.Sin(float64(j)))
	}
	l.Model.Fit()
	return l
}

// weightsOf reads a predictor's weights exactly: a prediction on a
// basis vector is that weight plus zeros.
func weightsOf(p *costmodel.Predictor, dim int) []uint64 {
	w := make([]uint64, dim)
	for i := range w {
		e := make([]float64, dim)
		e[i] = 1
		w[i] = math.Float64bits(p.Predict(e))
	}
	return w
}

func TestSaveBytesMatchOldEncoder(t *testing.T) {
	l := richLog()
	if !l.Model.Trained() || l.Model.Confidence() == 0 {
		t.Fatalf("setup: model trained=%v confidence=%v", l.Model.Trained(), l.Model.Confidence())
	}
	var want, got bytes.Buffer
	if err := headSave(l, &want); err != nil {
		t.Fatal(err)
	}
	if err := l.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Save wrote %d bytes, the old encoder %d, and they differ", got.Len(), want.Len())
	}
	// Without a trained model the "model" member is absent, as before.
	empty := New()
	empty.Record(GemmKey(1, 2, 3, tensor.FP32, "T4"), Entry{Trials: 1})
	want.Reset()
	got.Reset()
	if err := headSave(empty, &want); err != nil {
		t.Fatal(err)
	}
	if err := empty.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) || bytes.Contains(got.Bytes(), []byte(`"model"`)) {
		t.Fatalf("model-free log encodes as %q, want %q", got.Bytes(), want.Bytes())
	}
}

func TestLoadFitsLikeTheOldTwoStepIngest(t *testing.T) {
	src := richLog()
	var file bytes.Buffer
	if err := src.Save(&file); err != nil {
		t.Fatal(err)
	}
	l := New()
	if err := l.Load(bytes.NewReader(file.Bytes())); err != nil {
		t.Fatal(err)
	}
	want := headLoad(t, file.Bytes())
	const dim = 5
	for name, p := range map[string]*costmodel.Predictor{"the two-step ingest": want, "the model that was saved": src.Model} {
		if l.Model.Len() != p.Len() {
			t.Errorf("loaded %d observations, %s has %d", l.Model.Len(), name, p.Len())
		}
		if got, w := math.Float64bits(l.Model.Confidence()), math.Float64bits(p.Confidence()); got != w {
			t.Errorf("loaded confidence %v differs from %s's %v", l.Model.Confidence(), name, p.Confidence())
		}
		got, w := weightsOf(l.Model, dim), weightsOf(p, dim)
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("loaded weight %d differs from %s's", i, name)
			}
		}
	}
	if l.Len() != src.Len() {
		t.Errorf("loaded %d entries, want %d", l.Len(), src.Len())
	}
	// And the loaded log writes the file it read.
	var again bytes.Buffer
	if err := l.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), file.Bytes()) {
		t.Error("a loaded log does not save back to the bytes it loaded")
	}
}

func TestDirtyTracksChangesSinceTheFile(t *testing.T) {
	var file bytes.Buffer
	if err := richLog().Save(&file); err != nil {
		t.Fatal(err)
	}
	expect := func(l *Log, dirty bool, when string) {
		t.Helper()
		if l.Dirty() != dirty {
			t.Fatalf("%s: Dirty() = %v, want %v", when, !dirty, dirty)
		}
	}
	load := func(l *Log) {
		t.Helper()
		if err := l.Load(bytes.NewReader(file.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	save := func(l *Log) {
		t.Helper()
		if err := l.Save(io.Discard); err != nil {
			t.Fatal(err)
		}
	}

	l := New()
	expect(l, true, "a new log no file holds")
	save(l)
	expect(l, false, "after Save")

	l = New()
	load(l)
	expect(l, false, "after Load into an empty log")
	l.Lookup(GemmKey(512, 3072, 768, tensor.FP16, "Tesla T4"))
	l.Model.Fit()
	expect(l, false, "after a lookup and a refit")
	l.Record(GemmKey(9, 9, 9, tensor.FP16, "T4"), Entry{Trials: 1})
	expect(l, true, "after Record")
	save(l)
	expect(l, false, "after Save")
	l.Model.Observe("conv<0>&gemm", []float64{1, 0, 0, 0, 1}, math.Log(1e-6)) // held already
	expect(l, false, "after re-observing a known sample")
	l.Model.Observe("new", []float64{1, 2, 3, 4, 5}, -9)
	expect(l, true, "after a new observation")
	save(l)
	expect(l, false, "after Save")
	load(l)
	expect(l, true, "after Load into a log that held something")
	save(l)
	if err := l.Merge(bytes.NewReader(file.Bytes())); err != nil {
		t.Fatal(err)
	}
	expect(l, true, "after Merge into a log that held something")

	// A failed write leaves the log as dirty as it was.
	l = New()
	load(l)
	l.Record(GemmKey(9, 9, 9, tensor.FP16, "T4"), Entry{Trials: 1})
	if err := l.Save(failingWriter{}); err == nil {
		t.Fatal("Save into a failing writer reported no error")
	}
	expect(l, true, "after a failed Save")
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }
