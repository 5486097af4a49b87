// Package tunelog implements a tuning-log database in the spirit of
// TopHub / Lorien (paper §2.1): a persistent cache mapping workload
// signatures to previously tuned schedules, so static models can skip
// re-tuning.
//
// The paper's argument — which the ext-dyn experiment quantifies — is
// that this mitigation "only goes so far": models with dynamic shapes
// present workloads whose exact signatures are only known at runtime,
// where the cache misses and the full opaque search cost returns.
// Maintaining the database across TVM versions and devices also
// "incurs substantial costs", which the Stale machinery models.
//
// # File format
//
// A saved log is one JSON document: {"entries": [{"key", "entry"}…],
// "model": {"seed", "workloads": [{"g", "key"}…], "measurements":
// [[w, config…, y]…]}}, with "model" absent when the cost model holds
// no observations. The model part is its measurements: a table of the
// workloads measured, each its rank-group name verbatim and its full
// Key, and one row per measurement, [w, config…, y] — the workload's
// position in the table, the config's 16 fields (configFields) and the
// log kernel time. Features are derived from a row when the model
// first fits. Save writes the document in a fixed frame, one record
// per line:
//
//	{"entries":[
//	{"key":{…},"entry":{…}},
//	…
//	],"model":{"seed":1,"workloads":[
//	{"g":"conv:…","key":{…}},
//	…
//	],"measurements":[
//	[0,128,64,32,64,32,32,16,8,8,2,1,8,8,8,1,0,-9.21993587287548],
//	…
//	]}}
//
// Entry and workload lines are sorted, and each workload's rows, so
// equal logs save equal bytes; numbers are in strconv's shortest form.
// Load reads the frame itself; any other text that decodes as the same
// document goes through encoding/json, and the next Save rewrites it in
// the frame. Files of earlier versions, whose model rows held
// feature vectors ("obs": [{"g", "f", "y"}…]), load their entries and
// drop those rows: the model retrains.
//
// A loaded model fits on its first use (Predict, Trained or
// Confidence), and so does the refit the tuning pipeline asks for after
// its measurements: a compile that only saves the model never fits it.
//
// # Files
//
// This package is the only code that touches a tuning-log file. Open
// reads one (a missing file is an empty log) and keeps the SHA-256 of
// its bytes. Persist writes a changed log back through a temp file of
// its own name and a rename, so a reader never sees half a file. If the
// file's bytes are no longer the ones the log last read or wrote,
// another writer renamed its log over it, and Persist merges the file
// in first, the log's own entries winning. Persists to one path in one
// process take turns, so they keep every entry; a process that renames
// between another's read and rename loses its entries to that rename.
package tunelog

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"

	"bolt/internal/costmodel"
	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// Key identifies a tuning task: operator kind, problem dimensions,
// element type, target device, and the tuner version that produced the
// entry (entries from older tuner versions are stale — schedules do
// not transfer reliably across code generators).
//
// The dtype is part of the key because an FP16 and an FP32 GEMM of the
// same shape are different tasks (different instructions, different
// alignments, different best tiles). Conv tasks additionally carry the
// full convolution geometry: two distinct ConvShapes can project to
// the same implicit-GEMM (M, N, K) yet price differently (activation
// footprint, stride, padding), so the projection alone must not alias
// them.
type Key struct {
	Kind  string `json:"kind"` // "gemm" or "conv2d"
	M     int    `json:"m"`
	N     int    `json:"n"`
	K     int    `json:"k"`
	DType string `json:"dtype"`
	// Conv is the full convolution geometry (zero for GEMM tasks).
	Conv    cutlass.ConvShape `json:"conv,omitzero"`
	Device  string            `json:"device"`
	Version int               `json:"version"`
}

// String renders the key compactly.
func (k Key) String() string {
	if k.Kind == "conv2d" {
		c := k.Conv
		return fmt.Sprintf("%s(n%d,h%d,w%d,ic%d,oc%d,k%dx%d,s%dx%d,p%dx%d,%s)@%s/v%d",
			k.Kind, c.N, c.H, c.W, c.IC, c.OC, c.KH, c.KW,
			c.StrideH, c.StrideW, c.PadH, c.PadW, k.DType, k.Device, k.Version)
	}
	return fmt.Sprintf("%s(%d,%d,%d,%s)@%s/v%d", k.Kind, k.M, k.N, k.K, k.DType, k.Device, k.Version)
}

// Entry is one cached tuning result. Bolt's profiler stores the
// selected template parameterization in Config; an entry of another
// tuner (the Ansor baseline's) carries only its time and trials. A
// "schedule" key that older files wrote is ignored on load.
type Entry struct {
	// Config is the CUTLASS-style template selection (Bolt entries).
	Config cutlass.GemmConfig `json:"config,omitzero"`
	// TimeSeconds is the measured kernel time when the entry was
	// recorded.
	TimeSeconds float64 `json:"time_seconds"`
	// Trials records how much search produced this entry (measured
	// candidates for Bolt, search trials for Ansor).
	Trials int `json:"trials"`
	// Predicted marks a measurement-free entry: the cost model's trust
	// gate emitted its predicted-best config without running a sample,
	// and TimeSeconds is the model's estimate, not a measurement.
	Predicted bool `json:"predicted,omitempty"`
}

// Log is a thread-safe tuning-log database with hit/miss accounting.
type Log struct {
	mu      sync.Mutex
	entries map[Key]Entry

	// CurrentVersion invalidates entries recorded by older tuners.
	CurrentVersion int

	Hits, Misses, StaleHits int

	// edits counts the writes to entries (a Record or a read), and
	// savedEdits and savedObs are the edit count and model size of what
	// the file last read or written holds: the model, which callers
	// train directly, has gained observations when it holds more than
	// savedObs. See dirty.
	edits, savedEdits, savedObs int

	// path is the file Open read, and lock the mutex Persists to it
	// take turns on; sum is the SHA-256 of the bytes this log last read
	// from or wrote to it (zero when it read none), guarded by lock.
	path string
	lock *sync.Mutex
	sum  [sha256.Size]byte

	// Model is the cost model trained from this log's measurements. It
	// persists alongside the entries (Save/Load/Persist), so a process
	// loading a warm tunelog starts with a trained predictor and can
	// guide — or skip — profiling of workloads the log has never seen.
	// The Predictor is internally synchronized; Log methods only attach
	// and detach it.
	Model *costmodel.Predictor
}

// New returns an empty log at tuner version 1 with a fresh, untrained
// cost model (deterministic seed: logs are reproducible artifacts). It
// has no file, and is dirty: no file holds it.
func New() *Log {
	return &Log{entries: make(map[Key]Entry), CurrentVersion: 1, Model: costmodel.NewPredictor(1), edits: 1}
}

// dirty reports whether the log may hold anything its file does not:
// whether it changed since Open read the file or Persist wrote it.
// Record, Load and new model observations make a log dirty. A log Open
// found no file for is dirty, so its first Persist writes the file even
// if the log is empty.
func (l *Log) dirty() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.edits != l.savedEdits || l.modelLen() != l.savedObs
}

func (l *Log) modelLen() int {
	if l.Model == nil {
		return 0
	}
	return l.Model.Len()
}

// Lookup returns the cached entry for a workload. Entries from older
// tuner versions count as stale (a miss that additionally signals the
// maintenance burden).
func (l *Log) Lookup(k Key) (Entry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k.Version = l.CurrentVersion
	if e, ok := l.entries[k]; ok {
		l.Hits++
		return e, true
	}
	// Probe older versions for staleness accounting.
	for v := l.CurrentVersion - 1; v >= 1; v-- {
		k.Version = v
		if _, ok := l.entries[k]; ok {
			l.StaleHits++
			break
		}
	}
	l.Misses++
	return Entry{}, false
}

// Record stores a tuning result at the current version.
func (l *Log) Record(k Key, e Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k.Version = l.CurrentVersion
	l.entries[k] = e
	l.edits++
}

// Len returns the number of stored entries.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// HitRate returns hits / lookups (0 when never queried).
func (l *Log) HitRate() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := l.Hits + l.Misses
	if total == 0 {
		return 0
	}
	return float64(l.Hits) / float64(total)
}

// jsonEntry is the serialization record (maps with struct keys do not
// round-trip through encoding/json).
type jsonEntry struct {
	Key   Key   `json:"key"`
	Entry Entry `json:"entry"`
}

// jsonLog is the on-disk format the package doc describes.
type jsonLog struct {
	Entries []jsonEntry `json:"entries"`
	Model   *jsonModel  `json:"model,omitempty"`
}

type jsonModel struct {
	Seed      int64          `json:"seed"`
	Workloads []jsonWorkload `json:"workloads"`
	Rows      [][]float64    `json:"measurements"`
}

type jsonWorkload struct {
	Group string `json:"g"`
	Key   Key    `json:"key"`
}

// configFields lists a config's fields in a row's order.
func configFields(c cutlass.GemmConfig) [16]int {
	return [...]int{c.TB.M, c.TB.N, c.TB.K, c.Warp.M, c.Warp.N, c.Warp.K, c.Inst.M, c.Inst.N, c.Inst.K,
		c.Stages, c.SwizzleLog, c.AlignA, c.AlignB, c.AlignC, int(c.Op), int(c.DType)}
}

// workloadKey is the tuning key of a model workload.
func workloadKey(w *costmodel.Workload) Key {
	if w.Conv != (cutlass.ConvShape{}) {
		return Key{Kind: "conv2d", M: w.M, N: w.N, K: w.K, DType: w.DType.String(), Conv: w.Conv, Device: w.Device, Version: 1}
	}
	return Key{Kind: "gemm", M: w.M, N: w.N, K: w.K, DType: w.DType.String(), Device: w.Device, Version: 1}
}

// observations reads the model's rows. A workload of a dtype this
// build does not name yields rows with no workload, which the predictor
// drops, as it drops a device it does not know. A row that is not a
// measurement of a workload in the table is an error.
func (m *jsonModel) observations() ([]costmodel.Observation, error) {
	table := make([]*costmodel.Workload, len(m.Workloads))
	for i, w := range m.Workloads {
		for _, dt := range []tensor.DType{tensor.FP16, tensor.FP32, tensor.INT8} {
			if dt.String() == w.Key.DType {
				table[i] = &costmodel.Workload{Group: w.Group, M: w.Key.M, N: w.Key.N, K: w.Key.K, Conv: w.Key.Conv, DType: dt, Device: w.Key.Device}
			}
		}
	}
	obs := make([]costmodel.Observation, len(m.Rows))
	for i, r := range m.Rows {
		var f [17]int
		for j := range f {
			if len(r) != len(f)+1 || r[j] != math.Trunc(r[j]) || math.Abs(r[j]) > math.MaxInt32 {
				return nil, fmt.Errorf("tunelog: a measurement row %v is not [workload, 16 config fields, y]", r)
			}
			f[j] = int(r[j])
		}
		if f[0] < 0 || f[0] >= len(table) {
			return nil, fmt.Errorf("tunelog: a measurement of workload %d, of a table of %d", f[0], len(table))
		}
		obs[i] = costmodel.Observation{Workload: table[f[0]], Y: r[17], Config: cutlass.GemmConfig{
			TB: cutlass.Shape3{M: f[1], N: f[2], K: f[3]}, Warp: cutlass.Shape3{M: f[4], N: f[5], K: f[6]},
			Inst: cutlass.Shape3{M: f[7], N: f[8], K: f[9]}, Stages: f[10], SwizzleLog: f[11],
			AlignA: f[12], AlignB: f[13], AlignC: f[14], Op: gpu.OpClass(f[15]), DType: tensor.DType(f[16]),
		}}
	}
	return obs, nil
}

// Save writes the database — its entries and, when it has any, its
// cost model's measurements — in the frame the package doc describes.
// It writes nothing when an entry holds a number the frame cannot carry
// (NaN or an infinity).
func (l *Log) Save(w io.Writer) error {
	buf, _, _, err := l.frame()
	if err == nil {
		_, err = w.Write(buf)
	}
	return err
}

// frame renders the log in the frame, with the edit count and model
// size the bytes hold, for Persist to mark saved once they are in the
// file: writes made meanwhile leave the log dirty.
func (l *Log) frame() (buf []byte, edits, obs int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var model costmodel.State
	if l.Model != nil {
		model = l.Model.State()
	}
	buf, err = encode(l.entries, model)
	return buf, l.edits, len(model.Obs), err
}

// decode reads the on-disk format: the frame, or any other text
// encoding/json reads as the same document (every earlier version
// wrote it indented). Anything else — including the bare entry array
// of the format's first version — is an error.
func decode(buf []byte) (jsonLog, error) {
	if db, ok := decodeFrame(buf); ok {
		return db, nil
	}
	var db jsonLog
	if err := json.Unmarshal(buf, &db); err != nil {
		return jsonLog{}, fmt.Errorf("tunelog: %w", err)
	}
	return db, nil
}

// ingest reads a saved database into this log; keep says whether an
// in-memory entry survives a key conflict (Persist's merge keeps it;
// Load lets the file win). Model observations merge (deduplicated)
// whichever way entries resolve — measurements are facts, not
// preferences, so there is no conflict to resolve — and the merged
// model refits on first use.
func (l *Log) ingest(buf []byte, keep bool) error {
	db, err := decode(buf)
	if err != nil {
		return err
	}
	var obs []costmodel.Observation
	if db.Model != nil {
		if obs, err = db.Model.observations(); err != nil {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, row := range db.Entries {
		if _, ok := l.entries[row.Key]; !ok || !keep {
			l.entries[row.Key] = row.Entry
		}
	}
	if db.Model != nil {
		if l.Model == nil {
			l.Model = costmodel.NewPredictor(1)
		}
		l.Model.IngestRows(obs)
	}
	l.edits++
	return nil
}

// Load reads a saved database into this one (file entries win key
// conflicts). The file's measurements are folded into the log's
// predictor, so a warm process starts trained; the predictor fits on
// first use.
func (l *Log) Load(r io.Reader) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("tunelog: %w", err)
	}
	return l.ingest(buf, false)
}

// GemmKey builds the key for a GEMM task.
func GemmKey(m, n, k int, dt tensor.DType, device string) Key {
	return Key{Kind: "gemm", M: m, N: n, K: k, DType: dt.String(), Device: device, Version: 1}
}

// ConvKey builds the key for a conv task from its full shape. The
// implicit-GEMM dims are stored alongside for reporting, but the
// shape itself is what keys the entry.
func ConvKey(s cutlass.ConvShape, dt tensor.DType, device string) Key {
	m, n, k := s.ImplicitGemm()
	return Key{Kind: "conv2d", M: m, N: n, K: k, DType: dt.String(), Conv: s, Device: device, Version: 1}
}
