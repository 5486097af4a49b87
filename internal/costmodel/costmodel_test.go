package costmodel

import (
	"encoding/json"
	"fmt"
	"math"
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

// synthObs builds a deterministic learnable dataset: groups of
// candidates whose log-time is a fixed linear function of the
// features plus small group-specific structure.
func synthObs(groups, perGroup int) []Observation {
	truth := []float64{-8, 0.6, -0.9, 0.3, 1.1}
	var g lcg = 99
	var out []Observation
	for gi := 0; gi < groups; gi++ {
		for s := 0; s < perGroup; s++ {
			f := []float64{1, g.next() * 3, g.next() * 3, g.next() * 3, g.next()}
			y := 0.0
			for j := range f {
				y += truth[j] * f[j]
			}
			out = append(out, Observation{Group: fmt.Sprintf("wl-%d", gi), Feat: f, Y: y})
		}
	}
	return out
}

func TestPredictorRankingIsInsertionOrderIndependent(t *testing.T) {
	obs := synthObs(10, 24)

	fitFrom := func(order []int) *Predictor {
		p := NewPredictor(1)
		for _, i := range order {
			p.Observe(obs[i].Group, obs[i].Feat, obs[i].Y)
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
		pa, pb, pc := a.Predict(obs[i].Feat), b.Predict(obs[i].Feat), c.Predict(obs[i].Feat)
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
		good.Observe(o.Group, o.Feat, o.Y)
	}
	good.Fit()
	if !good.Trained() {
		t.Fatal("good predictor did not train")
	}
	if c := good.Confidence(); c < 0.7 {
		t.Fatalf("learnable data should give high held-out confidence, got %.3f", c)
	}

	// Poison: identical features, targets replaced by values
	// uncorrelated with them — the model cannot rank held-out
	// candidates, so the trust gate must see low confidence.
	poisoned := NewPredictor(1)
	var g lcg = 12345
	for _, o := range synthObs(10, 24) {
		poisoned.Observe(o.Group, o.Feat, g.next()*10-15)
	}
	poisoned.Fit()
	if c := poisoned.Confidence(); c > 0.35 {
		t.Fatalf("poisoned targets should give low held-out confidence, got %.3f", c)
	}
}

func TestPredictorObserveDeduplicates(t *testing.T) {
	p := NewPredictor(1)
	f := []float64{1, 2, 3}
	p.Observe("g", f, -7)
	p.Observe("g", f, -7)
	p.Observe("g", f, -7.5) // different target: a distinct sample
	if p.Len() != 2 {
		t.Fatalf("want 2 distinct observations after duplicate insert, got %d", p.Len())
	}
}

func TestPredictorJSONRoundTripIsBitIdentical(t *testing.T) {
	p := NewPredictor(42)
	obs := synthObs(10, 24)
	for _, o := range obs {
		p.Observe(o.Group, o.Feat, o.Y)
	}
	p.Fit()

	data, err := json.Marshal(p.State())
	if err != nil {
		t.Fatal(err)
	}
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
		if a, b := p.Predict(obs[i].Feat), q.Predict(obs[i].Feat); a != b {
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

// State is the one description of the file format: canonical order
// whatever the training interleaving, and rows that IngestRows turns
// back into the same model.
func TestStateIsCanonicalAndIngestRowsRebuildsTheModel(t *testing.T) {
	obs := synthObs(6, 20)
	p, rev := NewPredictor(7), NewPredictor(7)
	for i := range obs {
		p.Observe(obs[i].Group, obs[i].Feat, obs[i].Y)
		o := obs[len(obs)-1-i]
		rev.Observe(o.Group, o.Feat, o.Y)
	}
	p.Fit()
	st := p.State()
	if st.Seed != 7 || len(st.Obs) != len(obs) {
		t.Fatalf("State has seed %d and %d rows, want 7 and %d", st.Seed, len(st.Obs), len(obs))
	}
	for i := 1; i < len(st.Obs); i++ {
		if !lessObs(st.Obs[i-1], st.Obs[i]) {
			t.Fatalf("State rows %d and %d are out of canonical order", i-1, i)
		}
	}
	a, _ := json.Marshal(st)
	b, _ := json.Marshal(rev.State())
	if string(a) != string(b) {
		t.Fatal("State and a reordered predictor's State disagree on the bytes")
	}

	// Rows that crossed a file: a decoded State owns its slices.
	var decoded State
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatal(err)
	}
	q := NewPredictor(7)
	q.IngestRows(decoded.Obs)
	q.IngestRows(decoded.Obs) // a second helping adds nothing
	if q.Len() != p.Len() || q.Confidence() != p.Confidence() {
		t.Fatalf("IngestRows built %d rows at confidence %v, want %d at %v", q.Len(), q.Confidence(), p.Len(), p.Confidence())
	}
	for i := range obs {
		if x, y := p.Predict(obs[i].Feat), q.Predict(obs[i].Feat); x != y {
			t.Fatalf("obs %d: IngestRows model predicts %v, the trained one %v", i, y, x)
		}
	}

	// Observe copies what it keeps: the caller may reuse its buffer.
	buf := append([]float64(nil), obs[0].Feat...)
	r := NewPredictor(7)
	r.Observe("g", buf, -1)
	buf[0] = 1e9
	if got := r.State().Obs[0].Feat[0]; got != obs[0].Feat[0] {
		t.Fatalf("Observe kept the caller's slice: stored feature became %v", got)
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
}
