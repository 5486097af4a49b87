package costmodel

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// lcg is a tiny deterministic generator so tests depend on no
// math/rand state at all.
type lcg uint64

func (l *lcg) next() float64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return float64(*l>>11) / float64(1<<53)
}

func TestSolveRecoversLinearFunction(t *testing.T) {
	truth := []float64{0.5, -1.25, 2.0, 0.75}
	var g lcg = 7
	var feats [][]float64
	var targets []float64
	for i := 0; i < 64; i++ {
		f := []float64{1, g.next() * 4, g.next() * 4, g.next() * 4}
		y := 0.0
		for j := range f {
			y += truth[j] * f[j]
		}
		feats = append(feats, f)
		targets = append(targets, y)
	}
	w := Solve(feats, targets, 1e-6)
	if w == nil {
		t.Fatal("Solve returned nil on a well-posed system")
	}
	for j := range truth {
		if math.Abs(w[j]-truth[j]) > 1e-3 {
			t.Fatalf("weight %d: got %.6f, want %.6f", j, w[j], truth[j])
		}
	}
}

func TestSolveUnderdeterminedReturnsNil(t *testing.T) {
	feats := [][]float64{{1, 2, 3}, {4, 5, 6}}
	if w := Solve(feats, []float64{1, 2}, 1e-2); w != nil {
		t.Fatalf("Solve with 2 rows of 3 features should return nil, got %v", w)
	}
	if w := Solve(nil, nil, 1e-2); w != nil {
		t.Fatalf("Solve with no rows should return nil, got %v", w)
	}
}

// solveFull is Solve as it was before it accumulated only the upper
// triangle of X'X: every entry summed on its own.
func solveFull(feats [][]float64, targets []float64, lambda float64) []float64 {
	if len(feats) == 0 {
		return nil
	}
	n := len(feats[0])
	if len(feats) < n {
		return nil
	}
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		a[i][i] = lambda
	}
	for r, f := range feats {
		y := targets[r]
		for i := 0; i < n; i++ {
			b[i] += f[i] * y
			for j := 0; j < n; j++ {
				a[i][j] += f[i] * f[j]
			}
		}
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		if math.Abs(a[col][col]) < 1e-12 {
			continue
		}
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for j := col; j < n; j++ {
				a[r][j] -= f * a[col][j]
			}
			b[r] -= f * b[col]
		}
	}
	w := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= a[i][j] * w[j]
		}
		if math.Abs(a[i][i]) < 1e-12 {
			w[i] = 0
		} else {
			w[i] = sum / a[i][i]
		}
	}
	return w
}

// TestSolveMatchesFullAccumulation checks Solve bit for bit against a
// full accumulation of X'X, on random rows of mixed sign and magnitude
// and on rows drawn from a handful of vectors (zeros of both signs, a
// constant column, collinear columns).
func TestSolveMatchesFullAccumulation(t *testing.T) {
	var g lcg = 11
	pool := [][]float64{
		{1, 0, math.Copysign(0, -1), 3, 6, -2.5},
		{1, math.Copysign(0, -1), 0, 1e-300, 2e-300, 7},
		{1, 4.25, -4.25, 1e150, 2e150, 0},
		{1, 0.1, 0.2, 0.30000000000000004, 0.6000000000000001, -0.1},
		{1, -3, 3, -3, -6, 3},
	}
	for _, tc := range []struct {
		name string
		rows int
		row  func() []float64
	}{
		{"random", 200, func() []float64 {
			f := make([]float64, 9)
			for j := range f {
				f[j] = (g.next() - 0.5) * math.Pow(10, float64(int(g.next()*12)-6))
			}
			return f
		}},
		{"duplicates", 300, func() []float64 {
			return append([]float64(nil), pool[int(g.next()*float64(len(pool)))]...)
		}},
	} {
		var feats [][]float64
		var targets []float64
		for i := 0; i < tc.rows; i++ {
			feats = append(feats, tc.row())
			targets = append(targets, g.next()*20-10)
		}
		for _, lambda := range []float64{0, 1e-2} {
			got, want := Solve(feats, targets, lambda), solveFull(feats, targets, lambda)
			if len(got) != len(want) {
				t.Fatalf("%s, lambda %g: %d weights, want %d", tc.name, lambda, len(got), len(want))
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s, lambda %g: weight %d = %v, want %v", tc.name, lambda, j, got[j], want[j])
				}
			}
		}
	}
}

// t4Configs enumerates valid T4 FP16 tensor-op configs.
func t4Configs() []cutlass.GemmConfig {
	dev := gpu.T4()
	var out []cutlass.GemmConfig
	for _, tb := range []cutlass.Shape3{{M: 64, N: 64, K: 32}, {M: 128, N: 64, K: 32}, {M: 64, N: 128, K: 32}, {M: 128, N: 128, K: 32}, {M: 128, N: 256, K: 32}, {M: 256, N: 128, K: 32}} {
		for _, warp := range []cutlass.Shape3{{M: 32, N: 32, K: 32}, {M: 64, N: 32, K: 32}, {M: 32, N: 64, K: 32}, {M: 64, N: 64, K: 32}} {
			for sw := 1; sw <= 2; sw++ {
				cfg := cutlass.GemmConfig{TB: tb, Warp: warp, Inst: cutlass.InstructionShape(dev.Arch), Stages: 2, SwizzleLog: sw,
					AlignA: 8, AlignB: 8, AlignC: 8, Op: gpu.OpClassTensorOp, DType: tensor.FP16}
				if cfg.Validate(dev) == nil {
					out = append(out, cfg)
				}
			}
		}
	}
	return out
}

// synthObs builds a deterministic learnable dataset: groups of T4 GEMM
// workloads, each measured on perGroup configs at the simulator's
// noiseless kernel time.
func synthObs(groups, perGroup int) []Observation {
	dev := gpu.T4()
	cfgs := t4Configs()
	var out []Observation
	for gi := 0; gi < groups; gi++ {
		w := &Workload{Group: fmt.Sprintf("wl-%d", gi), M: 128 << (gi % 5), N: 256 * (1 + gi%3), K: 64 * (3 + gi),
			DType: tensor.FP16, Device: dev.Name}
		for _, cfg := range cfgs[:perGroup] {
			g := &cutlass.Gemm{Config: cfg, Epilogue: cutlass.DefaultEpilogue()}
			out = append(out, Observation{Workload: w, Config: cfg, Y: math.Log(dev.KernelTime(g.Desc(dev, w.M, w.N, w.K)))})
		}
	}
	return out
}

// features is an observation's vector, as a fit derives it.
func features(o Observation) []float64 { return o.Workload.AppendFeatures(nil, o.Config, gpu.T4()) }

func TestPredictorRankingIsInsertionOrderIndependent(t *testing.T) {
	obs := synthObs(10, 24)

	fitFrom := func(order []int) *Predictor {
		p := NewPredictor(1)
		for _, i := range order {
			p.Observe(obs[i])
		}
		p.Fit()
		return p
	}
	fwd := make([]int, len(obs))
	rev := make([]int, len(obs))
	interleaved := make([]int, 0, len(obs))
	for i := range obs {
		fwd[i] = i
		rev[i] = len(obs) - 1 - i
	}
	// Two-worker round-robin interleaving.
	for i := 0; i < len(obs); i += 2 {
		interleaved = append(interleaved, i)
	}
	for i := 1; i < len(obs); i += 2 {
		interleaved = append(interleaved, i)
	}

	a, b, c := fitFrom(fwd), fitFrom(rev), fitFrom(interleaved)
	for i := range obs {
		f := features(obs[i])
		pa, pb, pc := a.Predict(f), b.Predict(f), c.Predict(f)
		if pa != pb || pa != pc {
			t.Fatalf("obs %d: predictions diverge across insertion orders: %v %v %v", i, pa, pb, pc)
		}
	}
	if a.Confidence() != b.Confidence() || a.Confidence() != c.Confidence() {
		t.Fatalf("confidence diverges across insertion orders: %v %v %v",
			a.Confidence(), b.Confidence(), c.Confidence())
	}
}

func TestPredictorConfidenceSeparatesLearnableFromPoisoned(t *testing.T) {
	good := NewPredictor(1)
	for _, o := range synthObs(10, 24) {
		good.Observe(o)
	}
	good.Fit()
	if !good.Trained() {
		t.Fatal("good predictor did not train")
	}
	if c := good.Confidence(); c < 0.7 {
		t.Fatalf("learnable data should give high held-out confidence, got %.3f", c)
	}

	// Poison: the same measurements, targets replaced by values
	// uncorrelated with them — the model cannot rank held-out
	// candidates, so the trust gate must see low confidence.
	poisoned := NewPredictor(1)
	var g lcg = 12345
	for _, o := range synthObs(10, 24) {
		o.Y = g.next()*10 - 15
		poisoned.Observe(o)
	}
	poisoned.Fit()
	if c := poisoned.Confidence(); c > 0.35 {
		t.Fatalf("poisoned targets should give low held-out confidence, got %.3f", c)
	}
}

// Observe keeps a measurement once, whatever pointer names its
// workload, and drops a sample whose features it could not derive.
func TestPredictorObserveDeduplicates(t *testing.T) {
	p := NewPredictor(1)
	o := synthObs(1, 1)[0]
	same := *o.Workload
	p.Observe(o)
	p.Observe(Observation{Workload: &same, Config: o.Config, Y: o.Y})
	o.Y -= 0.5 // different target: a distinct sample
	p.Observe(o)
	if p.Len() != 2 {
		t.Fatalf("want 2 distinct observations after duplicate insert, got %d", p.Len())
	}
	unknown := *o.Workload
	unknown.Device = "GeForce 256"
	bad := o.Config
	bad.Stages = 3 // multistage pipelines need sm_80
	for what, d := range map[string]Observation{
		"no workload":        {Config: o.Config, Y: -1},
		"a NaN target":       {Workload: o.Workload, Config: o.Config, Y: math.NaN()},
		"an infinite target": {Workload: o.Workload, Config: o.Config, Y: math.Inf(-1)},
		"an unknown device":  {Workload: &unknown, Config: o.Config, Y: -1},
		"an invalid config":  {Workload: o.Workload, Config: bad, Y: -1},
	} {
		p.Observe(d)
		if p.Len() != 2 {
			t.Fatalf("a sample with %s was kept", what)
		}
	}
}

// Two measurements whose derived values are equal — configs that
// differ only in which operand has the narrower alignment, at one
// target — are one sample to the fit, as they were when rows held
// vectors.
func TestFitDedupsEqualDerivedValues(t *testing.T) {
	obs := synthObs(10, 24)
	a, b := obs[5], obs[5]
	a.Config.AlignA, a.Config.AlignB = 8, 4
	b.Config.AlignA, b.Config.AlignB = 4, 8
	if !slices.Equal(features(a), features(b)) {
		t.Fatal("setup: the two configs derive different features")
	}
	one, both := NewPredictor(1), NewPredictor(1)
	for _, o := range obs {
		one.Observe(o)
		both.Observe(o)
	}
	one.Observe(a)
	both.Observe(a)
	both.Observe(b)
	one.Fit()
	both.Fit()
	if both.Len() != one.Len()+1 {
		t.Fatalf("Len %d, want %d: both measurements are kept", both.Len(), one.Len()+1)
	}
	if !slices.Equal(one.weights, both.weights) || one.conf != both.conf {
		t.Error("a repeated derived value changed the fit")
	}
}

// A fit derives each row's features once: a row observed after a fit
// is derived by the next, and the model predicts as one fitted on all
// rows at once.
func TestFitDerivesFeaturesOnce(t *testing.T) {
	obs := synthObs(10, 24)
	p := NewPredictor(1)
	for _, o := range obs[:200] {
		p.Observe(o)
	}
	p.DeferFit()
	if len(p.feats) != 0 {
		t.Fatal("observing and deferring a fit derived features")
	}
	p.Trained()
	if len(p.feats) != 200*NumFeatures {
		t.Fatalf("a fit of 200 rows derived %d numbers", len(p.feats))
	}
	// A value no derivation writes: a later fit that derived the first
	// rows again would overwrite it.
	kept := p.feats[1]
	p.feats[1] = math.Pi
	for _, o := range obs[200:] {
		p.Observe(o)
	}
	p.Fit()
	if p.feats[1] != math.Pi {
		t.Fatal("a second fit derived a row the first had derived")
	}
	p.feats[1] = kept
	p.Fit()
	all := NewPredictor(1)
	all.IngestRows(obs)
	all.Fit()
	if len(p.feats) != len(obs)*NumFeatures || !slices.Equal(p.feats, all.feats) {
		t.Fatal("a second fit did not derive exactly the new rows")
	}
	if !slices.Equal(p.weights, all.weights) || p.conf != all.conf {
		t.Error("an incremental derivation fits other weights than one pass")
	}
}

// obsHash is FNV-1a over the bytes hash/fnv hashes: the seed, the
// group, each feature and the target, numbers little-endian.
func TestObsHashMatchesFNV(t *testing.T) {
	for _, o := range synthObs(3, 4) {
		for _, seed := range []int64{1, -7} {
			f := features(o)
			h := fnv.New64a()
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(seed))
			h.Write(b[:])
			h.Write([]byte(o.Workload.Group))
			for _, x := range append(f, o.Y) {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
				h.Write(b[:])
			}
			if got, want := obsHash(seed, o.Workload.Group, f, o.Y), h.Sum64(); got != want {
				t.Fatalf("obsHash %#x, hash/fnv %#x", got, want)
			}
		}
	}
}

func TestPredictorJSONRoundTripIsBitIdentical(t *testing.T) {
	p := NewPredictor(42)
	obs := synthObs(10, 24)
	for _, o := range obs {
		p.Observe(o)
	}
	p.Fit()

	data, err := json.Marshal(p.State())
	if err != nil {
		t.Fatal(err)
	}
	// Decoded rows each hold a workload of their own.
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	q := NewPredictor(st.Seed)
	q.IngestRows(st.Obs)
	if q.Len() != p.Len() {
		t.Fatalf("round-trip lost observations: %d -> %d", p.Len(), q.Len())
	}
	if !q.Trained() {
		t.Fatal("round-tripped predictor is untrained (weights must refit on load)")
	}
	if p.Confidence() != q.Confidence() {
		t.Fatalf("confidence changed across round-trip: %v -> %v", p.Confidence(), q.Confidence())
	}
	for i := range obs {
		if a, b := p.Predict(features(obs[i])), q.Predict(features(obs[i])); a != b {
			t.Fatalf("obs %d: prediction changed across round-trip: %v -> %v", i, a, b)
		}
	}

	// Ingesting the round-tripped copy back must be a no-op (dedup).
	before := p.Len()
	p.Ingest(q)
	if p.Len() != before {
		t.Fatalf("ingesting a copy grew the observation set: %d -> %d", before, p.Len())
	}
}

// A State's rows, ingested, rebuild the model that saved them, and the
// rows observed in any order fit the same model: the fit sorts them.
func TestIngestRowsRebuildsTheModel(t *testing.T) {
	obs := synthObs(6, 20)
	p, rev := NewPredictor(7), NewPredictor(7)
	for i := range obs {
		p.Observe(obs[i])
		rev.Observe(obs[len(obs)-1-i])
	}
	p.Fit()
	rev.Fit()
	st := p.State()
	if st.Seed != 7 || len(st.Obs) != len(obs) {
		t.Fatalf("State has seed %d and %d rows, want 7 and %d", st.Seed, len(st.Obs), len(obs))
	}
	if !slices.Equal(p.weights, rev.weights) || p.conf != rev.conf {
		t.Fatal("rows observed in reverse fit another model")
	}

	q := NewPredictor(7)
	q.IngestRows(st.Obs)
	q.IngestRows(st.Obs) // a second helping adds nothing
	if q.Len() != p.Len() || q.Confidence() != p.Confidence() {
		t.Fatalf("IngestRows built %d rows at confidence %v, want %d at %v", q.Len(), q.Confidence(), p.Len(), p.Confidence())
	}
	for i := range obs {
		if x, y := p.Predict(features(obs[i])), q.Predict(features(obs[i])); x != y {
			t.Fatalf("obs %d: IngestRows model predicts %v, the trained one %v", i, y, x)
		}
	}
}

func TestFeaturesDimensionIsStable(t *testing.T) {
	dev := gpu.T4()
	cfg := cutlass.GemmConfig{
		TB:     cutlass.Shape3{M: 128, N: 128, K: 32},
		Warp:   cutlass.Shape3{M: 64, N: 64, K: 32},
		Inst:   cutlass.InstructionShape(dev.Arch),
		Stages: 2, SwizzleLog: 1,
		AlignA: 8, AlignB: 8, AlignC: 8,
		Op: gpu.OpClassTensorOp, DType: tensor.FP16,
	}
	gemm := Features(cfg, 1024, 1024, 1024, nil, dev)
	shape := cutlass.ConvShape{N: 8, H: 56, W: 56, IC: 64, OC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	m, n, k := shape.ImplicitGemm()
	conv := Features(cfg, m, n, k, &shape, dev)
	if len(gemm) != len(conv) {
		t.Fatalf("gemm (%d) and conv (%d) feature vectors must have one dimension", len(gemm), len(conv))
	}
	a100 := Features(cfg, 1024, 1024, 1024, nil, gpu.A100())
	if len(a100) != len(gemm) {
		t.Fatalf("device change altered feature dimension: %d vs %d", len(a100), len(gemm))
	}
	if len(gemm) != NumFeatures {
		t.Fatalf("a vector of %d features, NumFeatures %d", len(gemm), NumFeatures)
	}
	w := &Workload{M: m, N: n, K: k, Conv: shape}
	if !slices.Equal(w.AppendFeatures(nil, cfg, dev), conv) {
		t.Error("a conv Workload derives other features than Features of its shape")
	}
}
