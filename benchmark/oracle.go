package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"

	"bolt"
	"bolt/internal/relay"
)

// goldenSeed is the seed golden.json was recorded at, and the default.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// goldenSet holds the bit-exact output digests per (model, input
// index) at goldenSeed. The float64 reference accepts an output within
// a tolerance; the digests additionally pin every bit, so a change
// that alters numerics inside the tolerance still shows.
type goldenSet struct {
	// record collects digests instead of comparing them.
	record bool
	mu     sync.Mutex
	digest map[string]string
}

func loadGolden(record bool) (*goldenSet, error) {
	g := &goldenSet{record: record, digest: make(map[string]string)}
	if record {
		return g, nil
	}
	if err := json.Unmarshal(goldenJSON, &g.digest); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// key names one output in golden.json.
func goldenKey(model string, idx int) string { return fmt.Sprintf("%s/%d", model, idx) }

// put records the digest of one output (record mode).
func (g *goldenSet) put(key string, d uint64) {
	g.mu.Lock()
	g.digest[key] = strconv.FormatUint(d, 16)
	g.mu.Unlock()
}

// want returns the recorded digest of one output, 0 when there is none:
// an output then fails its check, which is what a model or an input
// missing from golden.json should do.
func (g *goldenSet) want(key string) uint64 {
	d, _ := strconv.ParseUint(g.digest[key], 16, 64)
	return d
}

func (g *goldenSet) write(path string) error {
	data, err := json.MarshalIndent(g.digest, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// oracle decides whether a model's output for one of its prepared
// inputs is correct.
type oracle struct {
	refs [][]float64
	// At goldenSeed only: the golden set, and per prepared input its key
	// and its recorded digest, resolved at set-up so that a check inside
	// a measured window allocates nothing.
	golden *goldenSet
	keys   []string
	want   []uint64
}

// newOracle runs the reference on every prepared input. g must be the
// graph as authored: call this before the graph is compiled or
// deployed.
func newOracle(cfg config, model string, g *relay.Graph, inputs []*bolt.Tensor) (*oracle, error) {
	o := &oracle{}
	if cfg.seed == goldenSeed {
		o.golden = cfg.golden
	}
	for i, in := range inputs {
		ref, err := reference(g, map[string]*bolt.Tensor{g.Inputs[0].Name: in})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", model, err)
		}
		o.refs = append(o.refs, ref)
		if o.golden != nil {
			o.keys = append(o.keys, goldenKey(model, i))
			o.want = append(o.want, o.golden.want(o.keys[i]))
		}
	}
	return o, nil
}

// ok checks the output for prepared input idx: within refTolerance of
// the reference, and at goldenSeed bit-equal to the recorded digest.
func (o *oracle) ok(idx int, out *bolt.Tensor) bool {
	if out == nil || divergence(out.Data(), o.refs[idx]) > refTolerance {
		return false
	}
	if o.golden == nil {
		return true
	}
	d := digest(out.Data())
	if o.golden.record {
		o.golden.put(o.keys[idx], d)
		return true
	}
	return d == o.want[idx]
}
