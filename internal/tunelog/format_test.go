package tunelog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"bolt/internal/costmodel"
	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/profiler"
	"bolt/internal/tensor"
)

// oldLog is the document earlier versions of this package wrote: each
// model row held a feature vector, {"g", "f", "y"}, which no build can
// re-derive a measurement from.
type oldLog struct {
	Entries []jsonEntry `json:"entries"`
	Model   *oldModel   `json:"model,omitempty"`
}

type oldModel struct {
	Seed int64    `json:"seed"`
	Obs  []oldObs `json:"obs"`
}

type oldObs struct {
	G string    `json:"g"`
	F []float64 `json:"f"`
	Y float64   `json:"y"`
}

// oldFiles renders a log as earlier versions saved it: indented by
// encoding/json, and later one record per line.
func oldFiles(t *testing.T, l *Log) (indented, framed []byte) {
	t.Helper()
	doc := oldLog{Model: &oldModel{Seed: 1}}
	for k, e := range l.entries {
		doc.Entries = append(doc.Entries, jsonEntry{Key: k, Entry: e})
	}
	sort.Slice(doc.Entries, func(i, j int) bool { return doc.Entries[i].Key.String() < doc.Entries[j].Key.String() })
	for _, o := range l.Model.State().Obs {
		doc.Model.Obs = append(doc.Model.Obs, oldObs{o.Workload.Group, o.Workload.AppendFeatures(nil, o.Config, gpu.T4()), o.Y})
	}
	indented, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	line := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var lines []string
	for _, e := range doc.Entries {
		lines = append(lines, line(e))
	}
	var obs []string
	for _, o := range doc.Model.Obs {
		obs = append(obs, line(o))
	}
	framed = []byte(frameHead + "\n" + strings.Join(lines, ",\n") + "\n" +
		`],"model":{"seed":1,"obs":[` + "\n" + strings.Join(obs, ",\n") + "\n]}}\n")
	return indented, framed
}

// headLoad is the old two-step load of a file's model: decode it into
// a predictor of its own (which fitted), then ingest that predictor
// into the log's (which fitted again).
func headLoad(t *testing.T, file []byte) *costmodel.Predictor {
	t.Helper()
	var db jsonLog
	if err := json.Unmarshal(file, &db); err != nil {
		t.Fatal(err)
	}
	obs, err := db.Model.observations()
	if err != nil {
		t.Fatal(err)
	}
	own := costmodel.NewPredictor(db.Model.Seed)
	own.IngestRows(obs)
	own.Fit()
	p := costmodel.NewPredictor(1)
	p.Ingest(own)
	return p
}

// obsKeys lists observations as sorted strings: two lists are equal
// when they hold the same observations, targets bit for bit.
func obsKeys(obs []costmodel.Observation) []string {
	keys := make([]string, len(obs))
	for i, o := range obs {
		keys[i] = fmt.Sprintf("%#v %#v %x", *o.Workload, o.Config, math.Float64bits(o.Y))
	}
	slices.Sort(keys)
	return keys
}

// t4Configs are real T4 candidates of a large FP16 GEMM, each valid.
var t4Configs = profiler.New(gpu.T4(), nil).GemmCandidates(profiler.GemmWorkload{M: 4096, N: 4096, K: 4096, DType: tensor.FP16})

// measurement is a sample of the i-th of t4Configs on a 512x3072x768
// FP16 GEMM on the T4, in group.
func measurement(group string, i int, y float64) costmodel.Observation {
	return costmodel.Observation{
		Workload: &costmodel.Workload{Group: group, M: 512, N: 3072, K: 768, DType: tensor.FP16, Device: "Tesla T4"},
		Config:   t4Configs[i%len(t4Configs)], Y: y,
	}
}

// richLog holds what a real log holds: GEMM and conv entries (names
// that sort across both kinds), a predicted entry, and a model trained
// on GEMM and conv measurements with awkward targets, under names that
// need escapes, observed in a scrambled order.
func richLog() *Log {
	l := New()
	for i, m := range []int{512, 64, 1280, 8} {
		l.Record(GemmKey(m, 3072, 768, tensor.FP16, "Tesla T4"), Entry{
			Config:      cutlass.GemmConfig{TB: cutlass.Shape3{M: 128, N: 64 << (i % 2), K: 32}, Stages: 2 + i, AlignA: 8},
			TimeSeconds: 1e-5 / float64(3+i), Trials: 40 + i})
	}
	var workloads []*costmodel.Workload
	for i, oc := range []int{256, 64, 2048} {
		s := cutlass.ConvShape{N: 1, H: 14, W: 14, IC: 1024 >> i, OC: oc, KH: 1 + 2*(i%2), KW: 1 + 2*(i%2),
			StrideH: 1, StrideW: 1, PadH: i % 2, PadW: i % 2}
		l.Record(ConvKey(s, tensor.FP16, "Tesla T4"), Entry{TimeSeconds: math.Pi * 1e-6 * float64(i+1), Trials: 70})
		m, n, k := s.ImplicitGemm()
		workloads = append(workloads, &costmodel.Workload{M: m, N: n, K: k, Conv: s, DType: tensor.FP16, Device: "Tesla T4"},
			&costmodel.Workload{M: 64 << i, N: oc, K: 768, DType: tensor.FP16, Device: "Tesla T4"})
	}
	l.Record(GemmKey(8, 8, 8, tensor.INT8, "A100"), Entry{TimeSeconds: 3e-7, Predicted: true})
	dev := gpu.T4()
	for i, w := range workloads {
		w.Group = fmt.Sprintf("conv<%d>&gemm", i)
	}
	for i := 0; i < 120; i++ {
		j := (i * 37) % 120 // a permutation: 37 and 120 are coprime
		w, cfg := workloads[j/20], t4Configs[j%20]
		g := &cutlass.Gemm{Config: cfg, Epilogue: cutlass.DefaultEpilogue()}
		y := math.Log(dev.KernelTime(g.Desc(dev, w.M, w.N, w.K))) + 0.01*math.Sin(float64(j))
		l.Model.Observe(costmodel.Observation{Workload: w, Config: cfg, Y: y})
	}
	l.Model.Fit()
	return l
}

// weightsOf reads a predictor's first dim weights exactly: a prediction
// on a basis vector is that weight plus zeros.
func weightsOf(p *costmodel.Predictor, dim int) []uint64 {
	w := make([]uint64, dim)
	for i := range w {
		e := make([]float64, costmodel.NumFeatures)
		e[i] = 1
		w[i] = math.Float64bits(p.Predict(e))
	}
	return w
}

// sameModel checks that two predictors hold the same observations and
// fit bit-identical weights and confidence.
func sameModel(t *testing.T, got, want *costmodel.Predictor, what string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Errorf("%s: %d observations, want %d", what, got.Len(), want.Len())
	}
	if g, w := math.Float64bits(got.Confidence()), math.Float64bits(want.Confidence()); g != w {
		t.Errorf("%s: confidence %v, want %v", what, got.Confidence(), want.Confidence())
	}
	g, w := weightsOf(got, costmodel.NumFeatures), weightsOf(want, costmodel.NumFeatures)
	for i := range w {
		if g[i] != w[i] {
			t.Errorf("%s: weight %d differs", what, i)
		}
	}
}

// A file an earlier version wrote still loads its entries. Its model
// rows hold vectors, not measurements: the load drops them (the model
// retrains), and the next save writes the frame.
func TestOldFormatStillLoads(t *testing.T) {
	src := richLog()
	entriesOnly := New()
	entriesOnly.entries = src.entries
	var want bytes.Buffer
	if err := entriesOnly.Save(&want); err != nil {
		t.Fatal(err)
	}
	indented, framed := oldFiles(t, src)
	for name, old := range map[string][]byte{"an indented file": indented, "a framed file": framed} {
		if _, ok := decodeFrame(old); ok {
			t.Fatalf("%s: the frame decoder took a file of vectors", name)
		}
		l := openSaved(t, old)
		if !reflect.DeepEqual(l.entries, src.entries) {
			t.Errorf("%s loaded %d entries, want the %d saved, equal", name, len(l.entries), len(src.entries))
		}
		if l.Model.Len() != 0 {
			t.Errorf("%s loaded %d model rows from vectors", name, l.Model.Len())
		}
		if l.dirty() {
			t.Errorf("a log opened from %s is dirty", name)
		}
		var again bytes.Buffer
		if err := l.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), want.Bytes()) {
			t.Errorf("%s saves back as\n%s\nnot the frame of its entries\n%s", name, again.Bytes(), want.Bytes())
		}
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
		case len(st.Obs) > 0:
			if doc.Model == nil {
				t.Fatalf("%s: a model with observations was not written", name)
			}
			obs, err := doc.Model.observations()
			if err != nil || doc.Model.Seed != st.Seed || !slices.Equal(obsKeys(obs), obsKeys(st.Obs)) {
				t.Errorf("%s: the document's model is not the log's State (%v)", name, err)
			}
		}
	}
}

// A log never holds a number JSON cannot carry: the model drops a
// non-finite target, and a log with a non-finite entry time refuses to
// save or persist, writing nothing it could not read back.
func TestSaveRefusesNonFiniteNumbers(t *testing.T) {
	var file bytes.Buffer
	if err := richLog().Save(&file); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		l := openSaved(t, file.Bytes())
		l.Model.Observe(measurement("bad", 0, bad))
		if l.dirty() {
			t.Errorf("target %v: the model kept a non-finite target", bad)
		}
		l.Record(GemmKey(9, 9, 9, tensor.FP16, "T4"), Entry{TimeSeconds: bad})
		var w bytes.Buffer
		if err := l.Save(&w); err == nil || w.Len() != 0 {
			t.Errorf("entry time %v: Save returned %v after writing %d bytes", bad, err, w.Len())
		}
		if err := l.Persist(); err == nil {
			t.Errorf("entry time %v: Persist reported no error", bad)
		}
		if !l.dirty() {
			t.Errorf("entry time %v: a refused Persist left the log clean", bad)
		}
		if got, err := os.ReadFile(l.path); err != nil || !bytes.Equal(got, file.Bytes()) {
			t.Errorf("entry time %v: a refused Persist changed the file (%v)", bad, err)
		}
	}
}

// TestDecodeLongTokens feeds the frame decoder measurement rows whose
// numbers are not written as Save writes them — long tokens, 10- and
// 16-digit integers, leading zeros, signs, exponents — and numbers
// that overflow a float64. The frame takes only Save's own form, and
// reads it as encoding/json does; the rest goes to encoding/json,
// which reads it or refuses it. load says whether the rows convert.
func TestDecodeLongTokens(t *testing.T) {
	const long = "0.100000000000000000000000000001" // 32 bytes: 0.1
	const cfg = "128,64,32,64,32,32,16,8,8,2,1,8,8,8,1,0"
	for _, tc := range []struct {
		name, row         string
		frame, json, load bool
	}{
		{"shortest", `[0,` + cfg + `,-9.21993587287548]`, true, true, true},
		{"long", `[0,` + cfg + `,` + long + `]`, false, true, true},
		{"24 and 25 bytes", `[0,` + cfg + `,1234567890123456789012345]`, false, true, true},
		{"9 and 10 digits", `[0,` + cfg[:len(cfg)-1] + `999999999,1000000000]`, false, true, true},
		{"16 digits", `[0,` + cfg + `,9999999999999999]`, false, true, true},
		{"index 15 digits", `[100000000000000,` + cfg + `,0]`, false, true, false},
		{"exponent index", `[0e5,` + cfg + `,0]`, false, true, true},
		{"signed zero index", `[-0,` + cfg + `,-0]`, true, true, true},
		{"fraction index", `[0.5,` + cfg + `,0]`, true, true, false},
		{"exponent target", `[0,` + cfg + `,1e+21]`, true, true, true},
		{"capital exponent", `[0,` + cfg + `,1E+21]`, false, true, true},
		{"leading zero", `[00,` + cfg + `,0]`, false, false, false},
		{"bare point", `[0,` + cfg + `,1.]`, false, false, false},
		{"plus", `[+1,` + cfg + `,0]`, false, false, false},
		{"short", `[0,128,64,-9.5]`, true, true, false},
		{"empty", `[]`, true, true, false},
		{"overflow", `[0,` + cfg + `,1e400]`, false, false, false},
		{"long overflow", `[0,` + cfg + `,1000000000000000000000000000000e300]`, false, false, false},
		{"underflow", `[0,` + cfg + `,-0.000000000000000000000001e-400]`, false, true, true},
	} {
		file := []byte("{\"entries\":[\n],\"model\":{\"seed\":1,\"workloads\":[\n" +
			`{"g":"a","key":{"kind":"gemm","m":1,"n":2,"k":3,"dtype":"float16","device":"Tesla T4","version":1}}` +
			"\n],\"measurements\":[\n" + tc.row + "\n]}}\n")
		var want jsonLog
		jsonErr := json.Unmarshal(file, &want)
		got, ok := decodeFrame(file)
		if ok != tc.frame || (jsonErr == nil) != tc.json {
			t.Fatalf("%s: the frame decoder accepted = %v, encoding/json's error %v; want %v and %v", tc.name, ok, jsonErr, tc.frame, tc.json)
		}
		if ok && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the frame decoder read %+v, encoding/json %+v", tc.name, got.Model, want.Model)
		}
		if err := New().Load(bytes.NewReader(file)); (err == nil) != tc.load {
			t.Errorf("%s: Load returned %v", tc.name, err)
		}
	}
}

// Load checks each row against the table: an index out of range is an
// error, and a workload this build cannot derive features for — an
// unknown device or dtype — loses its rows, not the file.
func TestLoadChecksTheWorkloadTable(t *testing.T) {
	const cfg = "128,64,32,64,32,32,16,8,8,2,1,8,8,8,1,0"
	table := func(device, dtype string) string {
		return `{"g":"a","key":{"kind":"gemm","m":512,"n":3072,"k":768,"dtype":"` + dtype + `","device":"` + device + `","version":1}}`
	}
	file := func(table, rows string) []byte {
		return []byte("{\"entries\":[\n],\"model\":{\"seed\":1,\"workloads\":[\n" + table + "\n],\"measurements\":[\n" + rows + "\n]}}\n")
	}
	good, other := table("Tesla T4", "float16"), table("GeForce 256", "float16")
	for _, tc := range []struct {
		name string
		file []byte
		rows int
		err  bool
	}{
		{"known", file(good, "[0,"+cfg+",-9]"), 1, false},
		{"index out of range", file(good, "[1,"+cfg+",-9]"), 0, true},
		{"negative index", file(good, "[-1,"+cfg+",-9]"), 0, true},
		{"unknown device", file(good+",\n"+other, "[0,"+cfg+",-9],\n[1,"+cfg+",-9]"), 1, false},
		{"unknown dtype", file(table("Tesla T4", "bfloat16"), "[0,"+cfg+",-9]"), 0, false},
		{"invalid config", file(good, "[0,0,64,32,64,32,32,16,8,8,2,1,8,8,8,1,0,-9]"), 0, false},
	} {
		if _, ok := decodeFrame(tc.file); !ok {
			t.Fatalf("%s: the frame decoder declined the file", tc.name)
		}
		l := New()
		err := l.Load(bytes.NewReader(tc.file))
		if (err != nil) != tc.err || l.Model.Len() != tc.rows {
			t.Errorf("%s: Load returned %v and kept %d rows; want an error %v and %d rows", tc.name, err, l.Model.Len(), tc.err, tc.rows)
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
		sameModel(t, l.Model, p, "the loaded model against "+name)
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
		if l.dirty() != dirty {
			t.Fatalf("%s: dirty() = %v, want %v", when, !dirty, dirty)
		}
	}
	persist := func(l *Log) {
		t.Helper()
		if err := l.Persist(); err != nil {
			t.Fatal(err)
		}
	}

	l, err := Open(filepath.Join(t.TempDir(), "tune.json"))
	if err != nil {
		t.Fatal(err)
	}
	expect(l, true, "a log Open found no file for")
	persist(l)
	expect(l, false, "after Persist")

	l = openSaved(t, file.Bytes())
	expect(l, false, "after Open")
	l.Lookup(GemmKey(512, 3072, 768, tensor.FP16, "Tesla T4"))
	l.Model.Fit()
	expect(l, false, "after a lookup and a refit")
	l.Record(GemmKey(9, 9, 9, tensor.FP16, "T4"), Entry{Trials: 1})
	expect(l, true, "after Record")
	if err := l.Save(io.Discard); err != nil {
		t.Fatal(err)
	}
	expect(l, true, "after a Save, which writes no file")
	persist(l)
	expect(l, false, "after Persist")
	known := l.Model.State().Obs[0]
	w := *known.Workload // the same workload, under a pointer of its own
	l.Model.Observe(costmodel.Observation{Workload: &w, Config: known.Config, Y: known.Y})
	expect(l, false, "after re-observing a known sample")
	l.Model.Observe(measurement("new", 0, -9))
	expect(l, true, "after a new observation")
	persist(l)
	expect(l, false, "after Persist")
	if err := l.Load(bytes.NewReader(file.Bytes())); err != nil {
		t.Fatal(err)
	}
	expect(l, true, "after Load")
	persist(l)
	if err := l.ingest(file.Bytes(), true); err != nil {
		t.Fatal(err)
	}
	expect(l, true, "after a merge")
}

// openSaved writes data to a file of its own and opens it.
func openSaved(t *testing.T, data []byte) *Log {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tune.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return l
}
