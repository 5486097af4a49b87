package tunelog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"testing"

	"bolt/internal/costmodel"
	"bolt/internal/cutlass"
	"bolt/internal/tensor"
)

// headLog and headSave are the file format and encoder as they were
// before the frame: the same document, indented by encoding/json, with
// entries in the order of their keys' names. Load must still read
// these files.
type headLog struct {
	Entries []jsonEntry      `json:"entries"`
	Model   *costmodel.State `json:"model,omitempty"`
}

func headSave(l *Log, w io.Writer) error {
	rows := make([]jsonEntry, 0, len(l.entries))
	for k, e := range l.entries {
		rows = append(rows, jsonEntry{Key: k, Entry: e})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key.String() < rows[j].Key.String() })
	out := headLog{Entries: rows}
	if l.Model != nil && l.Model.Len() > 0 {
		st := l.Model.State()
		out.Model = &st
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// headLoad is the old two-step load of a file's model: decode it into
// a predictor of its own (which fitted), then ingest that predictor
// into the log's (which fitted again).
func headLoad(t *testing.T, file []byte) *costmodel.Predictor {
	t.Helper()
	var db headLog
	if err := json.Unmarshal(file, &db); err != nil {
		t.Fatal(err)
	}
	own := costmodel.NewPredictor(db.Model.Seed)
	own.IngestRows(db.Model.Obs)
	own.Fit()
	p := costmodel.NewPredictor(1)
	p.Ingest(own)
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

// sameModel checks that two predictors hold the same observations and
// fit bit-identical weights and confidence.
func sameModel(t *testing.T, got, want *costmodel.Predictor, dim int, what string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Errorf("%s: %d observations, want %d", what, got.Len(), want.Len())
	}
	if g, w := math.Float64bits(got.Confidence()), math.Float64bits(want.Confidence()); g != w {
		t.Errorf("%s: confidence %v, want %v", what, got.Confidence(), want.Confidence())
	}
	g, w := weightsOf(got, dim), weightsOf(want, dim)
	for i := range w {
		if g[i] != w[i] {
			t.Errorf("%s: weight %d differs", what, i)
		}
	}
}

func TestOldFormatStillLoads(t *testing.T) {
	src := richLog()
	if !src.Model.Trained() || src.Model.Confidence() == 0 {
		t.Fatalf("setup: model trained=%v confidence=%v", src.Model.Trained(), src.Model.Confidence())
	}
	var old bytes.Buffer
	if err := headSave(src, &old); err != nil {
		t.Fatal(err)
	}
	if _, ok := decodeFrame(old.Bytes()); ok {
		t.Fatal("setup: the frame decoder took an indented file")
	}
	l := New()
	if err := l.Load(bytes.NewReader(old.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l.entries, src.entries) {
		t.Errorf("an old file loaded %d entries, want the %d saved, equal", len(l.entries), len(src.entries))
	}
	sameModel(t, l.Model, src.Model, 5, "a model loaded from an old file")
	if l.Dirty() {
		t.Error("a log loaded from an old file is dirty")
	}

	// The next save writes the frame.
	var framed, want bytes.Buffer
	if err := l.Save(&framed); err != nil {
		t.Fatal(err)
	}
	if err := src.Save(&want); err != nil {
		t.Fatal(err)
	}
	if _, ok := decodeFrame(framed.Bytes()); !ok || !bytes.Equal(framed.Bytes(), want.Bytes()) {
		t.Errorf("an old file saves back as %d bytes, not the %d-byte frame its log saves", framed.Len(), want.Len())
	}
	if framed.Len() >= old.Len() {
		t.Errorf("the frame (%d bytes) is no smaller than the indented file (%d)", framed.Len(), old.Len())
	}
}

func TestSaveIsOneJSONDocument(t *testing.T) {
	empty := New()
	empty.Record(GemmKey(1, 2, 3, tensor.FP32, "T4"), Entry{Trials: 1})
	for name, l := range map[string]*Log{"a trained log": richLog(), "a model-free log": empty, "an empty log": New()} {
		var file bytes.Buffer
		if err := l.Save(&file); err != nil {
			t.Fatal(err)
		}
		var doc jsonLog
		if err := json.Unmarshal(file.Bytes(), &doc); err != nil {
			t.Fatalf("%s: encoding/json cannot read what Save wrote: %v", name, err)
		}
		framed, ok := decodeFrame(file.Bytes())
		if !ok {
			t.Fatalf("%s: the frame decoder declined what Save wrote:\n%s", name, file.Bytes())
		}
		if !reflect.DeepEqual(framed, doc) {
			t.Errorf("%s: the frame decoder and encoding/json read different logs", name)
		}
		entries := make(map[Key]Entry)
		for _, row := range doc.Entries {
			entries[row.Key] = row.Entry
		}
		if len(doc.Entries) != len(l.entries) || !reflect.DeepEqual(entries, l.entries) {
			t.Errorf("%s: the document holds %d entries, the log %d", name, len(doc.Entries), len(l.entries))
		}
		st := l.Model.State()
		switch {
		case len(st.Obs) == 0 && doc.Model != nil:
			t.Errorf("%s: a model without observations was written", name)
		case len(st.Obs) > 0 && (doc.Model == nil || !reflect.DeepEqual(*doc.Model, st)):
			t.Errorf("%s: the document's model is not the log's State", name)
		}
	}
}

// A log holding a number JSON cannot carry refuses to save, and writes
// nothing it could not read back.
func TestSaveRefusesNonFiniteNumbers(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		l := richLog()
		l.Model.Observe("bad", []float64{1, bad, 0, 0, 1}, -3)
		var w bytes.Buffer
		if err := l.Save(&w); err == nil || w.Len() != 0 {
			t.Errorf("feature %v: Save returned %v after writing %d bytes", bad, err, w.Len())
		}
		if !l.Dirty() {
			t.Errorf("feature %v: a refused Save left the log clean", bad)
		}
		l = richLog()
		l.Record(GemmKey(9, 9, 9, tensor.FP16, "T4"), Entry{TimeSeconds: bad})
		if err := l.Save(&w); err == nil || w.Len() != 0 {
			t.Errorf("entry time %v: Save returned %v after writing %d bytes", bad, err, w.Len())
		}
	}
}

// TestDecodeLongTokens feeds the frame decoder numbers its memo does
// not hold: tokens longer than its 24-byte key, one whose 24-byte
// prefix is a memoized token of another value, and numbers that
// overflow a float64. Each decodes as encoding/json reads it, or is
// refused as encoding/json refuses it.
func TestDecodeLongTokens(t *testing.T) {
	const long = "0.100000000000000000000000000001" // 32 bytes: 0.1
	for _, tc := range []struct {
		name, obs string
		ok        bool
	}{
		{"long", `{"g":"a","f":[` + long + `,` + long + `],"y":` + long + `}`, true},
		{"prefix", `{"g":"a","f":[1.0000000000000000000000,1.0000000000000000000000e1],"y":1.0000000000000000000000e1}`, true},
		{"24 and 25 bytes", `{"g":"a","f":[123456789012345678901234,1234567890123456789012345],"y":0}`, true},
		{"overflow", `{"g":"a","f":[1],"y":1e400}`, false},
		{"long overflow", `{"g":"a","f":[1000000000000000000000000000000e300],"y":0}`, false},
		{"repeated overflow", `{"g":"a","f":[1e400,1e400],"y":0}`, false},
		{"underflow", `{"g":"a","f":[1e-400,-0.000000000000000000000001e-400],"y":0}`, true},
	} {
		file := []byte("{\"entries\":[\n],\"model\":{\"seed\":1,\"obs\":[\n" + tc.obs + "\n]}}\n")
		var want jsonLog
		jsonErr := json.Unmarshal(file, &want)
		got, ok := decodeFrame(file)
		if ok != tc.ok || (jsonErr == nil) != tc.ok {
			t.Fatalf("%s: the frame decoder accepted = %v, encoding/json's error %v; want accepted = %v", tc.name, ok, jsonErr, tc.ok)
		}
		if ok && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the frame decoder read %+v, encoding/json %+v", tc.name, got.Model, want.Model)
		}
		if err := New().Load(bytes.NewReader(file)); (err == nil) != tc.ok {
			t.Errorf("%s: Load returned %v", tc.name, err)
		}
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
	for name, p := range map[string]*costmodel.Predictor{"the two-step ingest": want, "the model that was saved": src.Model} {
		sameModel(t, l.Model, p, 5, "the loaded model against "+name)
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
