// Package costmodel implements the learned kernel performance model
// shared by the opaque Ansor-style tuner and Bolt's guided profiler:
// ridge regression over schedule/template features predicting log
// kernel time, trained online as measurements land.
//
// The package is deliberately deterministic and seedable — no
// math/rand global state anywhere. A Predictor's weights depend only
// on the *set* of observations it has seen (never their arrival
// order), so a profiling pool of any width trains the same model, and
// a model reloaded from its State reproduces the exact ranking it
// would have produced in the process that saved it.
package costmodel

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"sync"
)

// Solve fits ridge regression — (X'X + lambda I) w = X'y — by
// Gaussian elimination with partial pivoting, accumulating normal
// equations over rows in the given order. It returns nil when there
// are fewer rows than features (underdetermined; callers treat nil as
// "not trained").
func Solve(feats [][]float64, targets []float64, lambda float64) []float64 {
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
	// X'X is symmetric: accumulate its upper triangle and mirror it.
	// Each mirrored sum adds the same products in the same row order,
	// so the matrix is the one a full accumulation builds.
	for r, f := range feats {
		y := targets[r]
		for i := 0; i < n; i++ {
			b[i] += f[i] * y
			ai := a[i]
			for j := i; j < n; j++ {
				ai[j] += f[i] * f[j]
			}
		}
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			a[i][j] = a[j][i]
		}
	}
	// Gaussian elimination with partial pivoting.
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

// Observation is one measured sample the predictor learns from.
type Observation struct {
	// Group identifies the workload the sample belongs to. The model's
	// job is ranking candidates *within* one workload, so held-out
	// confidence is rank correlation computed per group.
	Group string `json:"g"`
	// Feat is the feature vector (see Features).
	Feat []float64 `json:"f"`
	// Y is the learning target: log kernel seconds (lower is faster).
	Y float64 `json:"y"`
}

const (
	// ridgeLambda regularizes the fit (same strength the Ansor-style
	// tuner uses).
	ridgeLambda = 1e-2
	// heldOutMod holds out one observation in heldOutMod (selected by a
	// seeded, order-independent hash) for confidence estimation.
	heldOutMod = 4
	// minGroupRank is the smallest held-out group that contributes a
	// rank-correlation vote (rank correlation over fewer points is
	// noise).
	minGroupRank = 4
	// minHeldOut is the minimum held-out sample count before the model
	// reports any confidence at all.
	minHeldOut = 8
)

// Predictor is a seedable, thread-safe online cost model. Observe
// records measurements (idempotently — re-observing an identical
// sample is a no-op, so merging two logs never double-counts), Fit
// retrains from the full observation set in a canonical order, and
// Predict scores candidates with the weights of the last fit.
//
// An ingest (IngestRows, Ingest) and DeferFit fit too, but on first
// use: they record how many observations the fit covers, and the next
// Predict, Trained or Confidence fits exactly those before answering.
// The weights are the ones an eager fit at that point would have
// produced, and a process that loads or trains a model it never
// queries never pays for a fit.
type Predictor struct {
	mu   sync.Mutex
	seed int64
	dim  int
	obs  []Observation
	// hashes[i] is obsHash of obs[i]: the dedup key, and the held-out
	// split's.
	hashes  []uint64
	seen    map[uint64]struct{}
	weights []float64
	conf    float64
	// deferred is the observation count the pending fit covers, 0 once
	// that fit ran (or was superseded by Fit). A pending fit of no
	// observations is none: the weights of an empty set are already
	// nil.
	deferred int
}

// NewPredictor returns an empty predictor. The seed parameterizes the
// held-out split (which observations are withheld from training to
// score confidence); two predictors with the same seed and the same
// observation set are bit-identical.
func NewPredictor(seed int64) *Predictor {
	return &Predictor{seed: seed}
}

// obsHash fingerprints an observation under a seed: the basis of both
// the dedup set and the held-out split. It depends only on the
// observation's value, never on insertion order.
func obsHash(seed int64, o Observation) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(o.Group))
	for _, f := range o.Feat {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(o.Y))
	h.Write(b[:])
	return h.Sum64()
}

// Observe records one measured sample. Non-finite targets, empty
// features, dimension mismatches, and exact duplicates are dropped.
func (p *Predictor) Observe(group string, feat []float64, y float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.observeLocked(Observation{Group: group, Feat: feat, Y: y}, false)
}

// observeLocked applies Observe's rules to one row. owned says the
// row's feature slice is the predictor's to keep (nobody will write it
// again); otherwise a kept row stores a copy.
func (p *Predictor) observeLocked(o Observation, owned bool) {
	if len(o.Feat) == 0 || math.IsNaN(o.Y) || math.IsInf(o.Y, 0) {
		return
	}
	if p.dim == 0 {
		p.dim = len(o.Feat)
	}
	if len(o.Feat) != p.dim {
		return
	}
	h := obsHash(p.seed, o)
	if p.seen == nil {
		p.seen = make(map[uint64]struct{})
	}
	if _, ok := p.seen[h]; ok {
		return
	}
	if !owned {
		o.Feat = append([]float64(nil), o.Feat...)
	}
	p.seen[h] = struct{}{}
	p.obs = append(p.obs, o)
	p.hashes = append(p.hashes, h)
}

// IngestRows merges observation rows — a decoded State's, or another
// predictor's — under Observe's rules, and refits on first use. The
// predictor keeps the rows' feature slices, so the caller must not
// write them again.
func (p *Predictor) IngestRows(rows []Observation) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.seen == nil {
		p.seen = make(map[uint64]struct{}, len(rows))
	}
	p.obs = slices.Grow(p.obs, len(rows))
	p.hashes = slices.Grow(p.hashes, len(rows))
	for _, o := range rows {
		p.observeLocked(o, true)
	}
	p.deferLocked()
}

// DeferFit is Fit on first use: the next Predict, Trained or
// Confidence fits the observations recorded so far, and a predictor
// that is only saved never fits.
func (p *Predictor) DeferFit() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.deferLocked()
}

// deferLocked marks a fit of every current observation as pending.
func (p *Predictor) deferLocked() {
	p.deferred = len(p.obs)
}

// Ingest merges every observation of other (dedup applies), and refits
// on first use.
func (p *Predictor) Ingest(other *Predictor) {
	if other == nil || other == p {
		return
	}
	// Stored feature slices are never written, so two predictors can
	// share them.
	other.mu.Lock()
	rows := append([]Observation(nil), other.obs...)
	other.mu.Unlock()
	p.IngestRows(rows)
}

// Len returns the number of distinct observations recorded.
func (p *Predictor) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.obs)
}

// lessObs is the canonical observation order: fits iterate
// observations sorted by value, so weights never depend on which
// worker measured what first.
func lessObs(a, b Observation) bool {
	if a.Group != b.Group {
		return a.Group < b.Group
	}
	for i := range a.Feat {
		if i >= len(b.Feat) {
			return false
		}
		if a.Feat[i] != b.Feat[i] {
			return a.Feat[i] < b.Feat[i]
		}
	}
	if len(a.Feat) != len(b.Feat) {
		return len(a.Feat) < len(b.Feat)
	}
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	// Equal as numbers, distinct observations differ only in the sign
	// of a zero: -0 first keeps the order total, so a saved State sorts
	// back to itself.
	for i := range a.Feat {
		if math.Signbit(a.Feat[i]) != math.Signbit(b.Feat[i]) {
			return math.Signbit(a.Feat[i])
		}
	}
	return math.Signbit(a.Y) && !math.Signbit(b.Y)
}

// Fit retrains the model: training rows (the non-held-out majority)
// are solved exactly in canonical order, then confidence is scored as
// the sample-weighted mean Spearman rank correlation between
// predicted and measured times across held-out groups.
func (p *Predictor) Fit() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fitLocked(len(p.obs))
}

// settleLocked runs a deferred fit, if one is pending.
func (p *Predictor) settleLocked() {
	if p.deferred > 0 {
		p.fitLocked(p.deferred)
	}
}

// fitLocked fits the first n observations (in arrival order), and
// settles any deferred fit.
func (p *Predictor) fitLocked(n int) {
	p.deferred = 0
	// Each row carries its stored hash through the canonical sort.
	type hashed struct {
		o Observation
		h uint64
	}
	rows := make([]hashed, n)
	for i := range rows {
		rows[i] = hashed{p.obs[i], p.hashes[i]}
	}
	sort.Slice(rows, func(a, b int) bool { return lessObs(rows[a].o, rows[b].o) })

	var trainF [][]float64
	var trainY []float64
	var held []Observation
	for _, r := range rows {
		if r.h%heldOutMod == 0 {
			held = append(held, r.o)
		} else {
			trainF = append(trainF, r.o.Feat)
			trainY = append(trainY, r.o.Y)
		}
	}
	w := Solve(trainF, trainY, ridgeLambda)
	if w == nil {
		p.weights, p.conf = nil, 0
		return
	}
	p.weights = w

	// held is sorted by Group first, so groups are contiguous and the
	// confidence sum is accumulated in a deterministic order.
	total, votes := 0.0, 0
	for i := 0; i < len(held); {
		j := i
		for j < len(held) && held[j].Group == held[i].Group {
			j++
		}
		if n := j - i; n >= minGroupRank {
			preds := make([]float64, n)
			actual := make([]float64, n)
			for k, o := range held[i:j] {
				preds[k] = dot(w, o.Feat)
				actual[k] = o.Y
			}
			total += spearman(preds, actual) * float64(n)
			votes += n
		}
		i = j
	}
	if votes < minHeldOut {
		p.conf = 0
		return
	}
	p.conf = total / float64(votes)
	if p.conf < 0 {
		p.conf = 0
	}
	if p.conf > 1 {
		p.conf = 1
	}
}

func dot(w, f []float64) float64 {
	s := 0.0
	for i := range w {
		if i < len(f) {
			s += w[i] * f[i]
		}
	}
	return s
}

// ranks assigns average ranks (ties share their mean rank).
func ranks(x []float64) []float64 {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	r := make([]float64, len(x))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && x[idx[j]] == x[idx[i]] {
			j++
		}
		mean := float64(i+j-1) / 2
		for k := i; k < j; k++ {
			r[idx[k]] = mean
		}
		i = j
	}
	return r
}

// spearman computes the Spearman rank correlation of two equal-length
// samples (Pearson correlation of their average ranks); 0 when either
// sample is constant.
func spearman(a, b []float64) float64 {
	ra, rb := ranks(a), ranks(b)
	n := float64(len(a))
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// Predict returns the model's score for a feature vector — predicted
// log kernel seconds, lower is faster — using the weights of the last
// fit (0 before any successful fit).
func (p *Predictor) Predict(feat []float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.settleLocked()
	if p.weights == nil {
		return 0
	}
	return dot(p.weights, feat)
}

// Trained reports whether the model has enough data behind a fit to
// produce meaningful predictions.
func (p *Predictor) Trained() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.settleLocked()
	return p.weights != nil
}

// Confidence returns the held-out ranking quality of the last fit in
// [0, 1]: the sample-weighted mean Spearman rank correlation between
// predicted and measured times across held-out workload groups (0
// until enough held-out samples exist). This is what a trust gate
// compares against its threshold before skipping measurement.
func (p *Predictor) Confidence() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.settleLocked()
	return p.conf
}

// State is the persistence format, and the only description of it:
// the seed and the raw observation set in canonical order. Weights are
// derived state, refit after a load (on first use), so a loaded model
// is bit-identical to the one that saved it. A tuning log writes the
// struct under its JSON names in its own file.
type State struct {
	Seed int64         `json:"seed"`
	Obs  []Observation `json:"obs"`
}

// State returns the predictor's persisted form, observations in
// canonical order (stable files under any training interleaving). The
// rows share the predictor's feature slices: read-only.
func (p *Predictor) State() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return State{Seed: p.seed, Obs: sortedObs(p.obs)}
}

// sortedObs returns a copy of obs in canonical order.
func sortedObs(obs []Observation) []Observation {
	rows := make([]Observation, len(obs))
	copy(rows, obs)
	sort.Slice(rows, func(a, b int) bool { return lessObs(rows[a], rows[b]) })
	return rows
}
