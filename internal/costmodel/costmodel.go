// Package costmodel implements the learned kernel performance model
// shared by the opaque Ansor-style tuner and Bolt's guided profiler:
// ridge regression over schedule/template features predicting log
// kernel time, trained online as measurements land.
//
// A Predictor keeps measurements, not vectors: an Observation is a
// config's log time on a Workload (the problem, its rank group and the
// device's name). Features are derived from it when the model first
// fits, so they always follow the current Features.
//
// The package is deliberately deterministic and seedable — no
// math/rand global state anywhere. A Predictor's weights depend only
// on the *set* of observations it has seen (never their arrival
// order), so a profiling pool of any width trains the same model, and
// a model reloaded from its State reproduces the exact ranking it
// would have produced in the process that saved it.
package costmodel

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/tensor"
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

// Workload is the problem a measurement ran: a GEMM, or a convolution
// as its implicit GEMM, on one device. With the config, it is all that
// Features reads.
type Workload struct {
	// Group identifies the workload. The model's job is ranking
	// candidates *within* one workload, so held-out confidence is rank
	// correlation computed per group.
	Group string
	// M, N, K are the GEMM dims (a convolution's implicit GEMM).
	M, N, K int
	// Conv is the convolution geometry, zero for a GEMM.
	Conv  cutlass.ConvShape
	DType tensor.DType
	// Device is the name of the device measured on (see gpu.Named).
	Device string
}

// Observation is one measured sample the predictor learns from: a
// config's time on a workload.
type Observation struct {
	Workload *Workload // shared, never written
	Config   cutlass.GemmConfig
	// Y is the learning target: log kernel seconds (lower is faster).
	Y float64
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
// A fit derives the features of each observation it has not seen yet
// and keeps them for later fits, so a process that records or loads
// measurements it never queries computes no features at all.
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
	// obs are the distinct observations in arrival order, seen their
	// set. Equal workloads share the pointer workloads keeps (in is the
	// last pointer observed, kept its kept one); devices maps a name to
	// its gpu.Named, nil if unknown.
	obs       []Observation
	seen      map[obsKey]struct{}
	workloads map[Workload]*Workload
	in, kept  *Workload
	devices   map[string]*gpu.Device
	// Derived for obs[:len(hashes)]: their vectors back to back, their
	// obsHash, and whether an earlier observation holds the same value
	// (a fit counts a value once); values is the set of the hashes.
	feats  []float64
	hashes []uint64
	dup    []bool
	values map[uint64]struct{}

	weights []float64
	conf    float64
	// deferred is the observation count the pending fit covers, 0 once
	// that fit ran (or was superseded by Fit). A pending fit of no
	// observations is none: the weights of an empty set are already
	// nil.
	deferred int
}

// obsKey is an observation's value, small enough for a map to hold in
// place; the target is its bits, so -0 and 0 stay apart.
type obsKey struct {
	w   *Workload
	cfg [16]int32
	y   uint64
}

// NewPredictor returns an empty predictor. The seed parameterizes the
// held-out split (which observations are withheld from training to
// score confidence); two predictors with the same seed and the same
// observation set are bit-identical.
func NewPredictor(seed int64) *Predictor {
	return &Predictor{seed: seed}
}

// obsHash fingerprints an observation's value under a seed: hash/fnv's
// FNV-1a over the seed, the group, every feature and the target, numbers
// as eight little-endian bytes. It keys the fit's value dedup and
// held-out split, so those never depend on insertion order.
func obsHash(seed int64, group string, feat []float64, y float64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	word := func(x uint64) {
		h = (h ^ x&0xff) * prime
		h = (h ^ x>>8&0xff) * prime
		h = (h ^ x>>16&0xff) * prime
		h = (h ^ x>>24&0xff) * prime
		h = (h ^ x>>32&0xff) * prime
		h = (h ^ x>>40&0xff) * prime
		h = (h ^ x>>48&0xff) * prime
		h = (h ^ x>>56) * prime
	}
	word(uint64(seed))
	for i := 0; i < len(group); i++ {
		h = (h ^ uint64(group[i])) * prime
	}
	for _, f := range feat {
		word(math.Float64bits(f))
	}
	word(math.Float64bits(y))
	return h
}

// Observe records one measured sample. It drops a sample with no
// workload, a non-finite target, a device gpu.Named does not know or a
// config not valid on it (the model could not derive its features),
// and an exact duplicate.
func (p *Predictor) Observe(o Observation) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.observeLocked(o)
}

// observeLocked applies Observe's rules to one row.
func (p *Predictor) observeLocked(o Observation) {
	if o.Workload == nil || math.IsNaN(o.Y) || math.IsInf(o.Y, 0) {
		return
	}
	// A workload's rows mostly arrive together, under one pointer.
	if o.Workload != p.in {
		w := p.workloads[*o.Workload]
		if w == nil {
			w = o.Workload
			if p.workloads == nil {
				p.workloads = make(map[Workload]*Workload)
				p.devices = make(map[string]*gpu.Device)
			}
			p.workloads[*w] = w
			if _, ok := p.devices[w.Device]; !ok {
				p.devices[w.Device] = gpu.Named(w.Device)
			}
		}
		p.in, p.kept = o.Workload, w
	}
	c := &o.Config
	k := obsKey{p.kept, [16]int32{int32(c.TB.M), int32(c.TB.N), int32(c.TB.K), int32(c.Warp.M), int32(c.Warp.N),
		int32(c.Warp.K), int32(c.Inst.M), int32(c.Inst.N), int32(c.Inst.K), int32(c.Stages), int32(c.SwizzleLog),
		int32(c.AlignA), int32(c.AlignB), int32(c.AlignC), int32(c.Op), int32(c.DType)}, math.Float64bits(o.Y)}
	if _, ok := p.seen[k]; ok {
		return
	}
	if dev := p.devices[p.kept.Device]; dev == nil || c.Validate(dev) != nil {
		return
	}
	if p.seen == nil {
		p.seen = make(map[obsKey]struct{})
	}
	p.seen[k] = struct{}{}
	o.Workload = p.kept
	p.obs = append(p.obs, o)
}

// IngestRows merges observations — a decoded State's, or another
// predictor's — under Observe's rules, and refits on first use. The
// predictor keeps the rows' workloads, so the caller must not write
// them again.
func (p *Predictor) IngestRows(rows []Observation) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.seen == nil {
		p.seen = make(map[obsKey]struct{}, len(rows))
	}
	p.obs = slices.Grow(p.obs, len(rows))
	for _, o := range rows {
		p.observeLocked(o)
	}
	p.deferred = len(p.obs)
}

// DeferFit is Fit on first use: the next Predict, Trained or
// Confidence fits the observations recorded so far, and a predictor
// that is only saved never fits.
func (p *Predictor) DeferFit() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.deferred = len(p.obs)
}

// Ingest merges every observation of other (dedup applies), and refits
// on first use.
func (p *Predictor) Ingest(other *Predictor) {
	if other == nil || other == p {
		return
	}
	p.IngestRows(other.State().Obs)
}

// Len returns the number of distinct observations recorded.
func (p *Predictor) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.obs)
}

// sample is an observation as the fit sees it.
type sample struct {
	group string
	feat  []float64
	y     float64
	h     uint64
}

// cmpSample is the canonical fit order: a fit iterates samples sorted
// by value, so weights never depend on which worker measured what
// first.
func cmpSample(a, b sample) int {
	if a.group != b.group {
		return strings.Compare(a.group, b.group)
	}
	for i, x := range a.feat {
		if y := b.feat[i]; x != y {
			return cmp.Compare(x, y)
		}
	}
	if a.y != b.y {
		return cmp.Compare(a.y, b.y)
	}
	// Equal as numbers, distinct samples differ only in the sign of a
	// zero: -0, the larger bits, first keeps the order total.
	for i, x := range a.feat {
		if c := cmp.Compare(math.Float64bits(b.feat[i]), math.Float64bits(x)); c != 0 {
			return c
		}
	}
	return cmp.Compare(math.Float64bits(b.y), math.Float64bits(a.y))
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
	if p.values == nil {
		p.values = make(map[uint64]struct{}, n)
	}
	p.feats = slices.Grow(p.feats, (n-len(p.hashes))*NumFeatures)
	for i := len(p.hashes); i < n; i++ {
		o := p.obs[i]
		p.feats = o.Workload.AppendFeatures(p.feats, o.Config, p.devices[o.Workload.Device])
		h := obsHash(p.seed, o.Workload.Group, p.feats[i*NumFeatures:], o.Y)
		_, dup := p.values[h]
		p.values[h] = struct{}{}
		p.hashes = append(p.hashes, h)
		p.dup = append(p.dup, dup)
	}
	rows := make([]sample, 0, n)
	for i, o := range p.obs[:n] {
		if !p.dup[i] {
			feat := p.feats[i*NumFeatures : (i+1)*NumFeatures : (i+1)*NumFeatures]
			rows = append(rows, sample{o.Workload.Group, feat, o.Y, p.hashes[i]})
		}
	}
	slices.SortFunc(rows, cmpSample)

	var trainF [][]float64
	var trainY []float64
	var held []sample
	for _, r := range rows {
		if r.h%heldOutMod == 0 {
			held = append(held, r)
		} else {
			trainF = append(trainF, r.feat)
			trainY = append(trainY, r.y)
		}
	}
	w := Solve(trainF, trainY, ridgeLambda)
	if w == nil {
		p.weights, p.conf = nil, 0
		return
	}
	p.weights = w

	// held is sorted by group first, so groups are contiguous and the
	// confidence sum is accumulated in a deterministic order.
	total, votes := 0.0, 0
	for i := 0; i < len(held); {
		j := i
		for j < len(held) && held[j].group == held[i].group {
			j++
		}
		if n := j - i; n >= minGroupRank {
			preds := make([]float64, n)
			actual := make([]float64, n)
			for k, o := range held[i:j] {
				preds[k] = dot(w, o.feat)
				actual[k] = o.y
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

// State is the persistence form, and the only description of it: the
// seed and the measurements, each a workload, a config and a target.
// Features and weights are derived, on first use after a load, so a
// loaded model is bit-identical to the one that saved it. A tuning log
// writes it in its own file, sorted.
type State struct {
	Seed int64
	Obs  []Observation
}

// State returns the predictor's persisted form, observations in
// arrival order. The rows are the predictor's own, which it never
// writes again: read-only.
func (p *Predictor) State() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return State{Seed: p.seed, Obs: p.obs[:len(p.obs):len(p.obs)]}
}
