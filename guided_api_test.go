package bolt_test

// Guided-tuning API surface (PR 7): the TopK/TrustThreshold knobs on
// bolt.Options and DeployOptions, the cost model's persistence through
// CacheFile, and the -race stress over concurrent guided variant
// compiles sharing one server cost model.

import (
	"path/filepath"
	"sync"
	"testing"

	"bolt"
	"bolt/internal/models"
	"bolt/internal/tensor"
)

func TestGuidedKnobValidation(t *testing.T) {
	g := buildTinyMLP()
	if _, err := bolt.Compile(g, bolt.T4(), bolt.Options{TopK: 8}); err == nil {
		t.Error("TopK without CacheFile must fail: the cost model lives in the tuning log")
	}
	if _, err := bolt.Compile(buildTinyMLP(), bolt.T4(), bolt.Options{TrustThreshold: 0.5}); err == nil {
		t.Error("TrustThreshold without CacheFile must fail")
	}
}

func TestGuidedCompileThroughCacheFile(t *testing.T) {
	cacheFile := filepath.Join(t.TempDir(), "tune.json")

	// Cold full sweep: profiles everything, trains the cost model, and
	// persists both entries and model to the cache file.
	full, err := bolt.Compile(models.ResNetAt(18, 8, 32), bolt.T4(), bolt.Options{CacheFile: cacheFile, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if full.Tuning.Measurements != full.Tuning.EnumeratedCandidates {
		t.Fatalf("unguided compile must be a full sweep: %d of %d",
			full.Tuning.Measurements, full.Tuning.EnumeratedCandidates)
	}

	// A different batch size presents entirely new workload keys —
	// cache entries miss, but the persisted model guides: at most TopK
	// measurements per workload and a smaller tuning bill.
	guided, err := bolt.Compile(models.ResNetAt(18, 4, 32), bolt.T4(),
		bolt.Options{CacheFile: cacheFile, Jobs: 4, TopK: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := guided.Tuning
	if s.ProfiledWorkloads == 0 {
		t.Fatal("rebatched model should present cold workloads")
	}
	if s.Measurements > 8*s.ProfiledWorkloads {
		t.Errorf("guided compile measured %d candidates over %d workloads, budget 8 each",
			s.Measurements, s.ProfiledWorkloads)
	}
	if s.SkippedCandidates == 0 {
		t.Error("guided compile skipped nothing; guidance did not engage")
	}
	if guided.Module.Time() <= 0 {
		t.Error("guided module is unpriceable")
	}
}

// TestServerGuidedCompileStress exercises concurrent guided variant
// compiles against one shared server cost model under -race: two
// tenants warm simultaneously with TopK guidance (concurrent
// Plan/Observe/Fit on the shared predictor) while inference outputs
// stay bit-identical to the clone-based oracle.
func TestServerGuidedCompileStress(t *testing.T) {
	if testing.Short() {
		t.Skip("guided serving stress is not short")
	}
	srv, err := bolt.NewServer(bolt.T4(), bolt.ServerOptions{Workers: 2, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Tenant "train" full-sweeps its buckets, training the server's
	// shared in-memory cost model.
	if err := srv.Deploy("train", models.ResNetAt(18, 1, 32), bolt.DeployOptions{Buckets: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Warm("train"); err != nil {
		t.Fatal(err)
	}

	// Two guided tenants at a new resolution: every bucket workload is
	// absent from the shared log, so their Warm compiles run guided,
	// concurrently, against the model tenant "train" just built.
	for _, name := range []string{"guided-a", "guided-b"} {
		if err := srv.Deploy(name, models.ResNetAt(18, 1, 48), bolt.DeployOptions{Buckets: []int{1, 2}, TopK: 6}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	warmErrs := make([]error, 2)
	for i, name := range []string{"guided-a", "guided-b"} {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			warmErrs[i] = srv.Warm(name)
		}(i, name)
	}
	wg.Wait()
	for i, err := range warmErrs {
		if err != nil {
			t.Fatalf("guided warm %d: %v", i, err)
		}
	}

	// Numerics are template-independent: whatever configs guidance
	// picked, outputs must match the clone-based oracle bit-for-bit.
	oracleRes, err := bolt.Compile(models.ResNetAt(18, 1, 48), bolt.T4(), bolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const distinct = 4
	inputs := make([]map[string]*bolt.Tensor, distinct)
	oracle := make([]*bolt.Tensor, distinct)
	for i := range inputs {
		in := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNCHW, 1, 3, 48, 48)
		in.FillRandom(int64(i+1), 1)
		inputs[i] = map[string]*bolt.Tensor{"data": in}
		oracle[i] = oracleRes.Module.RunUnplanned(inputs[i])
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := []string{"guided-a", "guided-b"}[c%2]
			for it := 0; it < 3; it++ {
				i := (c + it) % distinct
				out, err := srv.Infer(name, inputs[i], bolt.InferOptions{})
				if err != nil {
					t.Errorf("caller %d: %v", c, err)
					return
				}
				if d := tensor.MaxAbsDiff(out, oracle[i]); d != 0 {
					t.Errorf("caller %d iter %d: diff %g from oracle", c, it, d)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
