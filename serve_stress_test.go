package bolt_test

// Concurrency validation for the serving engine and the pooled
// executor: planned concurrent Module.Run and batched Server.Infer
// must both be bit-identical to the clone-based RunUnplanned oracle.
// Run with -race.

import (
	"sync"
	"testing"
	"time"

	"bolt"
	"bolt/internal/models"
	"bolt/internal/tensor"
)

// serveZooGraph builds the stress-test zoo model: ResNet-18 at a
// reduced resolution (batch 1), affordable under -race.
func serveZooGraph() *bolt.Graph { return models.ResNetAt(18, 1, 32) }

func zooInput(seed int64) map[string]*bolt.Tensor {
	in := tensor.NewWithLayout(tensor.FP16, tensor.LayoutNCHW, 1, 3, 32, 32)
	in.FillRandom(seed, 1)
	return map[string]*bolt.Tensor{"data": in}
}

// TestConcurrentModuleRunBitIdentical hammers one planned module from
// 8 goroutines and checks every result bit-for-bit against the
// clone-based oracle: the pooled ExecStates must never bleed into each
// other.
func TestConcurrentModuleRunBitIdentical(t *testing.T) {
	res, err := bolt.Compile(buildTiny(), bolt.T4(), bolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Module
	const distinct = 4
	inputs := make([]map[string]*bolt.Tensor, distinct)
	oracle := make([]*bolt.Tensor, distinct)
	for i := range inputs {
		in := bolt.NewTensor(bolt.FP16, 4, 8, 16, 16)
		in.FillRandom(int64(i+1), 1)
		inputs[i] = map[string]*bolt.Tensor{"image": in}
		oracle[i] = m.RunUnplanned(inputs[i])
	}
	const callers, iters = 8, 6
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (c + it) % distinct
				out := m.Run(inputs[i])
				if d := tensor.MaxAbsDiff(out, oracle[i]); d != 0 {
					t.Errorf("caller %d iter %d: diff %g from oracle", c, it, d)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// serveOne starts a T4 server with g deployed as model "m". The server
// is closed at test cleanup; Close is idempotent, so a test may close
// it earlier.
func serveOne(t *testing.T, g *bolt.Graph, so bolt.ServerOptions, do bolt.DeployOptions) *bolt.Server {
	t.Helper()
	srv, err := bolt.NewServer(bolt.T4(), so)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.Deploy("m", g, do); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestServerInferStress floods a one-model server over a zoo model
// with 8 concurrent callers; every batched output must be bit-identical
// to the per-sample RunUnplanned oracle.
func TestServerInferStress(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo serving stress is not short")
	}
	g := serveZooGraph()
	oracleRes, err := bolt.Compile(models.ResNetAt(18, 1, 32), bolt.T4(), bolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const distinct = 8
	inputs := make([]map[string]*bolt.Tensor, distinct)
	oracle := make([]*bolt.Tensor, distinct)
	for i := range inputs {
		inputs[i] = zooInput(int64(i + 1))
		oracle[i] = oracleRes.Module.RunUnplanned(inputs[i])
	}

	srv := serveOne(t, g, bolt.ServerOptions{Workers: 4, BatchWindow: 2 * time.Millisecond},
		bolt.DeployOptions{Buckets: []int{1, 2, 4}})

	const callers, perCaller = 8, 2
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perCaller; r++ {
				i := (c*perCaller + r) % distinct
				ch, err := srv.InferAsync("m", inputs[i], bolt.InferOptions{})
				if err != nil {
					t.Errorf("caller %d: %v", c, err)
					return
				}
				res := <-ch
				if res.Err != nil {
					t.Errorf("caller %d: %v", c, res.Err)
					return
				}
				if d := tensor.MaxAbsDiff(res.Output, oracle[i]); d != 0 {
					t.Errorf("caller %d req %d: diff %g from unbatched oracle", c, r, d)
					return
				}
				// The stage decomposition is exact on every delivered result.
				if got := res.QueueWait + res.ExecuteSeconds; got != res.SimLatency {
					t.Errorf("caller %d req %d: QueueWait+ExecuteSeconds = %v != SimLatency %v",
						c, r, got, res.SimLatency)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := srv.Stats()
	if st.Requests != callers*perCaller {
		t.Errorf("requests %d, want %d", st.Requests, callers*perCaller)
	}
	if st.SimMakespan <= 0 {
		t.Error("no simulated time accounted")
	}
}

// TestBatcherMatchesUnbatched forces a bucket-4 batch and checks each
// coalesced request's slice against the per-sample oracle — the
// batcher's stack/slice round trip must be lossless.
func TestBatcherMatchesUnbatched(t *testing.T) {
	src := buildTiny1()
	oracleRes, err := bolt.Compile(buildTiny1(), bolt.T4(), bolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := serveOne(t, src, bolt.ServerOptions{Workers: 1, BatchWindow: 200 * time.Millisecond},
		bolt.DeployOptions{Buckets: []int{4}})

	const n = 4
	inputs := make([]map[string]*bolt.Tensor, n)
	oracle := make([]*bolt.Tensor, n)
	for i := range inputs {
		in := bolt.NewTensor(bolt.FP16, 1, 8, 16, 16)
		in.FillRandom(int64(100+i), 1)
		inputs[i] = map[string]*bolt.Tensor{"image": in}
		oracle[i] = oracleRes.Module.RunUnplanned(inputs[i])
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := srv.Infer("m", inputs[i], bolt.InferOptions{})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if d := tensor.MaxAbsDiff(out, oracle[i]); d != 0 {
				t.Errorf("request %d: batched output differs by %g", i, d)
			}
		}(i)
	}
	wg.Wait()
	if st := srv.Stats(); st.BatchSizes[4] == 0 {
		t.Logf("note: flood was not coalesced into a bucket-4 batch: %v", st.BatchSizes)
	}
}

// buildTiny1 is buildTiny at batch 1 (the serving source shape).
func buildTiny1() *bolt.Graph {
	b := bolt.NewBuilder()
	x := b.Input("image", bolt.FP16, 1, 8, 16, 16)
	c := b.Conv2D(x, b.Weight("w1", 16, 3, 3, 8), 1, 1)
	c = b.BiasAdd(c, b.Weight("b1", 16))
	c = b.Activation(c, bolt.GELU)
	c = b.Conv2D(c, b.Weight("w2", 16, 1, 1, 16), 1, 0)
	c = b.Activation(c, bolt.ReLU)
	g := b.GlobalAvgPool(c)
	d := b.Dense(g, b.Weight("fc", 16, 8))
	return b.Build(b.Softmax(d))
}
