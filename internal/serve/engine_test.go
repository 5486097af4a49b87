package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bolt/internal/gpu"
	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/tensor"
)

// fakeVariant builds a hand-made two-kernel module (input -> x+1) at
// the given batch, bound to the target device, so serving mechanics
// are testable without the compilation pipeline. The launch desc gives
// batches a modeled cost, so simulated clocks advance — and since the
// module is priced on its device, the cost differs by device class:
// the same kernel descriptor prices faster on an A100 than on a T4.
func fakeVariant(dev *gpu.Device, batch int) (*rt.Module, error) {
	in := &relay.Node{ID: 0, Op: relay.OpInput, Name: "x",
		Shape: tensor.Shape{batch, 4}, DType: tensor.FP32}
	add := &relay.Node{ID: 1, Op: relay.OpActivation, Inputs: []*relay.Node{in},
		Shape: tensor.Shape{batch, 4}, DType: tensor.FP32}
	g := &relay.Graph{Nodes: []*relay.Node{in, add}, Inputs: []*relay.Node{in}, Output: add}
	return &rt.Module{
		Graph:  g,
		Device: dev,
		Kernels: []rt.Kernel{
			{Name: "in", Node: in, Slot: 0,
				Exec: func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor { return env.Input("x") }},
			{Name: "add1", Node: add, Slot: 1, Launches: 1,
				Desc: rt.ElementwiseLikeDesc("add1", batch*4, 1, 1, tensor.FP32),
				Exec: func(env *rt.Env, dst *tensor.Tensor) *tensor.Tensor {
					x := env.Value(0)
					out := x.Clone()
					for i, v := range x.Data() {
						out.Data()[i] = v + 1
					}
					return out
				}},
		},
	}, nil
}

// t4s returns a pool of n workers that all model a Tesla T4.
func t4s(n int) []*gpu.Device {
	pool := make([]*gpu.Device, n)
	for i := range pool {
		pool[i] = gpu.T4()
	}
	return pool
}

func sampleInput(seed int64) map[string]*tensor.Tensor {
	in := tensor.New(tensor.FP32, 1, 4)
	in.FillRandom(seed, 1)
	return map[string]*tensor.Tensor{"x": in}
}

// serveOne starts a server with one model, "m", deployed from compile.
// The server is closed at test cleanup (Close is idempotent, so tests
// may close it earlier).
func serveOne(t *testing.T, compile CompileFunc, so ServerOptions, do DeployOptions) *Server {
	t.Helper()
	s := NewServer(so)
	t.Cleanup(s.Close)
	if err := s.Deploy("m", compile, do); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEngineInferAddsOne(t *testing.T) {
	s := serveOne(t, fakeVariant, ServerOptions{Devices: t4s(2)}, DeployOptions{})
	in := sampleInput(7)
	out, err := s.Infer("m", in, InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range in["x"].Data() {
		if out.Data()[i] != v+1 {
			t.Fatalf("out[%d] = %g, want %g", i, out.Data()[i], v+1)
		}
	}
	if !out.Shape().Equal(tensor.Shape{1, 4}) {
		t.Errorf("output shape %v, want (1, 4)", out.Shape())
	}
}

func TestEngineBatchesFlood(t *testing.T) {
	s := serveOne(t, fakeVariant, ServerOptions{Devices: t4s(2), BatchWindow: 50 * time.Millisecond},
		DeployOptions{Buckets: []int{1, 2, 4}})
	const n = 8
	chans := make([]<-chan Result, n)
	inputs := make([]map[string]*tensor.Tensor, n)
	for i := 0; i < n; i++ {
		inputs[i] = sampleInput(int64(i + 1))
		ch, err := s.InferAsync("m", inputs[i], InferOptions{})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		for j, v := range inputs[i]["x"].Data() {
			if res.Output.Data()[j] != v+1 {
				t.Fatalf("request %d slot %d: got %g want %g", i, j, res.Output.Data()[j], v+1)
			}
		}
		if res.SimLatency <= 0 {
			t.Error("simulated latency must be positive")
		}
	}
	st, _ := s.ModelStats("m")
	if st.Requests != n {
		t.Errorf("requests %d, want %d", st.Requests, n)
	}
	if st.BatchSizes[4] == 0 {
		t.Errorf("flood of %d should have produced a bucket-4 batch: %v", n, st.BatchSizes)
	}
	if st.SimMakespan <= 0 || st.Throughput() <= 0 {
		t.Errorf("bad makespan/throughput: %+v", st)
	}
	if st.LatencyPercentile(99) < st.LatencyPercentile(50) {
		t.Error("p99 below p50")
	}
}

func TestEngineCompileErrorPropagates(t *testing.T) {
	boom := errors.New("no such variant")
	s := serveOne(t, func(dev *gpu.Device, batch int) (*rt.Module, error) {
		if batch > 1 {
			return nil, boom
		}
		return fakeVariant(dev, batch)
	}, ServerOptions{Devices: t4s(1)}, DeployOptions{Buckets: []int{1, 2}})
	if err := s.Warm("m", 2); !errors.Is(err, boom) {
		t.Errorf("Warm error %v, want %v", err, boom)
	}
	// Bucket 1 still serves.
	if _, err := s.Infer("m", sampleInput(1), InferOptions{}); err != nil {
		t.Errorf("bucket-1 request failed: %v", err)
	}
}

func TestEngineExecPanicBecomesError(t *testing.T) {
	s := serveOne(t, fakeVariant, ServerOptions{Devices: t4s(1)}, DeployOptions{})
	// Wrong input name: env.Input panics inside the kernel; the worker
	// must answer with an error, not die.
	bad := map[string]*tensor.Tensor{"nope": tensor.New(tensor.FP32, 1, 4)}
	if _, err := s.Infer("m", bad, InferOptions{}); err == nil {
		t.Fatal("bad input should error")
	}
	// The server is still alive afterwards.
	if _, err := s.Infer("m", sampleInput(3), InferOptions{}); err != nil {
		t.Fatalf("server wedged after panic: %v", err)
	}
}

func TestEngineCloseRejectsAndDrains(t *testing.T) {
	s := serveOne(t, fakeVariant, ServerOptions{Devices: t4s(2)}, DeployOptions{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Infer("m", sampleInput(int64(i)), InferOptions{}); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	s.Close()
	s.Close() // idempotent
	if _, err := s.Infer("m", sampleInput(99), InferOptions{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Infer after Close = %v, want ErrClosed", err)
	}
}

// TestOptionsNormalized pins that the options a server runs under are
// the normalized ones: Deploy normalizes the bucket ladder and
// NewServer applies the queue default.
func TestOptionsNormalized(t *testing.T) {
	s := serveOne(t, fakeVariant, ServerOptions{Devices: t4s(1)}, DeployOptions{Buckets: []int{8, 4, 8, 0, -3}})
	s.mu.Lock()
	buckets := s.tenants["m"].buckets
	s.mu.Unlock()
	if fmt.Sprint(buckets) != "[1 4 8]" {
		t.Errorf("deployed buckets %v, want [1 4 8]", buckets)
	}
	if s.opts.QueueDepth != 1024 {
		t.Errorf("server defaults wrong: %+v", s.opts)
	}
}

// TestNewServerNeedsDevices pins that a pool is its device list: no
// devices, or a nil entry, is a programming error caught at
// construction rather than a worker that models nothing.
func TestNewServerNeedsDevices(t *testing.T) {
	for name, devices := range map[string][]*gpu.Device{
		"empty":     nil,
		"nil entry": {gpu.T4(), nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s Devices: NewServer did not panic", name)
				}
			}()
			NewServer(ServerOptions{Devices: devices}).Close()
		}()
	}
}
