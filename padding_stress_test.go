package bolt_test

// Concurrency validation for padded-bucket dispatch: batches the
// scheduler runs zero-padded on a larger compiled bucket must answer
// every request bit-identically to the per-sample clone-based
// RunUnplanned oracle. Run with -race.

import (
	"sync"
	"testing"

	"bolt"
	"bolt/internal/tensor"
)

// TestPaddedServingBitIdentical floods a single-worker server whose
// bucket ladder ({1, 8}, launch-overhead-dominated tiny CNN) makes a
// padded bucket-8 dispatch the modeled winner for any 2..7 coalesced
// rows, and checks every answered request bit-for-bit against the
// unpadded per-sample oracle. Waves repeat until a padded batch has
// actually run, so the test cannot pass vacuously on a scheduling
// interleaving that only ever saw one pending request.
func TestPaddedServingBitIdentical(t *testing.T) {
	src := buildTiny1()
	oracleRes, err := bolt.Compile(buildTiny1(), bolt.T4(), bolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const distinct = 5
	inputs := make([]map[string]*bolt.Tensor, distinct)
	oracle := make([]*bolt.Tensor, distinct)
	for i := range inputs {
		in := bolt.NewTensor(bolt.FP16, 1, 8, 16, 16)
		in.FillRandom(int64(200+i), 1)
		inputs[i] = map[string]*bolt.Tensor{"image": in}
		oracle[i] = oracleRes.Module.RunUnplanned(inputs[i])
	}

	srv := serveOne(t, src, bolt.ServerOptions{Workers: 1}, bolt.DeployOptions{
		Buckets: []int{1, 8}, AllowPadding: true, ContinuousBatching: true,
	})
	// Price the whole ladder up front so dispatch never stalls on a
	// background pricing compile mid-wave.
	if err := srv.Warm("m"); err != nil {
		t.Fatal(err)
	}

	// Each wave fires a burst of requests per oracle input. Half the
	// waves enqueue from concurrent goroutines (scheduler racing the
	// enqueuers), half enqueue back-to-back from this goroutine so the
	// queue is guaranteed to hold partial batches while the single
	// worker is busy — the interleaving that forces padded dispatches
	// even when the scheduler otherwise drains requests one by one.
	const perInput = 3
	for wave := 0; wave < 20; wave++ {
		chans := make([]<-chan bolt.ServeResult, distinct*perInput)
		if wave%2 == 0 {
			var mu sync.Mutex
			var wg sync.WaitGroup
			for i := range chans {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ch, err := srv.InferAsync("m", inputs[i%distinct], bolt.InferOptions{})
					if err != nil {
						t.Errorf("wave %d req %d: %v", wave, i, err)
						return
					}
					mu.Lock()
					chans[i] = ch
					mu.Unlock()
				}(i)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
		} else {
			for i := range chans {
				ch, err := srv.InferAsync("m", inputs[i%distinct], bolt.InferOptions{})
				if err != nil {
					t.Fatalf("wave %d req %d: %v", wave, i, err)
				}
				chans[i] = ch
			}
		}
		for i, ch := range chans {
			res := <-ch
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if d := tensor.MaxAbsDiff(res.Output, oracle[i%distinct]); d != 0 {
				t.Fatalf("wave %d req %d (bucket %d): output differs by %g from unpadded oracle",
					wave, i, res.Batch, d)
			}
		}
		if st := srv.Stats(); st.PaddedBatches > 0 {
			if st.PaddedRows == 0 {
				t.Error("padded batches counted without padded rows")
			}
			return
		}
	}
	t.Fatal("20 waves never produced a padded dispatch; the padded execution path went unexercised")
}
