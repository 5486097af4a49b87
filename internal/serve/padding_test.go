package serve

import (
	"testing"

	"bolt/internal/gpu"
	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/tensor"
)

// costVariant builds the fakeVariant module with an arbitrary modeled
// kernel size per batch, so tests can shape the bucket ladder's cost
// curve (e.g. make the bucket-2 variant cheaper than bucket 1 to force
// a padded dispatch, or exactly equal to pin tie-breaking).
func costVariant(elems func(batch int) int) CompileFunc {
	return func(dev *gpu.Device, batch int) (*rt.Module, error) {
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
					Desc: rt.ElementwiseLikeDesc("add1", elems(batch), 1, 1, tensor.FP32),
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
}

// TestPaddedDispatchBeatsStrict forces the padded plan: the bucket-2
// variant is modeled cheaper than bucket 1, so a lone high-priority
// request must run zero-padded on bucket 2, produce the same output,
// and be counted by the padded stats.
func TestPaddedDispatchBeatsStrict(t *testing.T) {
	s := NewServer(ServerOptions{Devices: t4s(1)})
	defer s.Close()
	cheap2 := func(batch int) int {
		if batch >= 2 {
			return 1 << 20
		}
		return 1 << 22
	}
	if err := s.Deploy("m", costVariant(cheap2), DeployOptions{
		Buckets: []int{1, 2}, AllowPadding: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Warm("m"); err != nil {
		t.Fatal(err)
	}
	in := sampleInput(3)
	ch, err := s.InferAsync("m", in, InferOptions{Priority: PriorityHigh})
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Batch != 2 {
		t.Errorf("batch %d, want the padded bucket 2", res.Batch)
	}
	for i, v := range in["x"].Data() {
		if res.Output.Data()[i] != v+1 {
			t.Fatalf("padded output[%d] = %g, want %g", i, res.Output.Data()[i], v+1)
		}
	}
	if !res.Output.Shape().Equal(tensor.Shape{1, 4}) {
		t.Errorf("padded output shape %v, want (1, 4)", res.Output.Shape())
	}
	st, _ := s.ModelStats("m")
	if st.PaddedBatches != 1 || st.PaddedRows != 1 {
		t.Errorf("padded batches/rows = %d/%d, want 1/1", st.PaddedBatches, st.PaddedRows)
	}
	if st.BatchSizes[2] != 1 || st.BatchSizes[1] != 0 {
		t.Errorf("batch histogram %v, want the one batch under bucket 2", st.BatchSizes)
	}
}

// TestPaddedTieKeepsStrict pins the tie-break: when the padded and
// strict plans price identically, the strict plan must win — on every
// run, so enabling padding cannot make a cost-neutral schedule flap.
func TestPaddedTieKeepsStrict(t *testing.T) {
	flat := func(int) int { return 1 << 20 }
	for run := 0; run < 2; run++ {
		s := NewServer(ServerOptions{Devices: t4s(1)})
		if err := s.Deploy("m", costVariant(flat), DeployOptions{
			Buckets: []int{1, 2}, AllowPadding: true,
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.Warm("m"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Infer("m", sampleInput(5), InferOptions{Priority: PriorityHigh}); err != nil {
			t.Fatal(err)
		}
		st, _ := s.ModelStats("m")
		if st.PaddedBatches != 0 || st.PaddedRows != 0 {
			t.Errorf("run %d: tie padded %d batches/%d rows, want strict (0/0)", run, st.PaddedBatches, st.PaddedRows)
		}
		if st.BatchSizes[1] != 1 || st.BatchSizes[2] != 0 {
			t.Errorf("run %d: batch histogram %v, want exactly one bucket-1 batch", run, st.BatchSizes)
		}
		s.Close()
	}
}

// TestContinuousFormationMarginalGain drives formBatchLocked directly:
// simultaneous arrivals are absorbed as long as a row's marginal batch
// cost stays below a single-row launch, while an arrival far in the
// simulated future (a huge extra wait for the rows already formed) must
// stop the scan.
func TestContinuousFormationMarginalGain(t *testing.T) {
	s := NewServer(ServerOptions{Devices: t4s(1)})
	defer s.Close()
	if err := s.Deploy("m", fakeVariant, DeployOptions{
		Buckets: []int{1, 2, 4, 8}, ContinuousBatching: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Warm("m"); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	tn := s.tenants["m"]
	flood := []*request{{simArrival: 0}, {simArrival: 0}, {simArrival: 0}, {simArrival: 0}, {simArrival: 0}}
	got := s.formBatchLocked(tn, flood)
	s.mu.Unlock()
	if got != len(flood) {
		t.Errorf("flood of %d simultaneous rows formed %d, want all absorbed (elementwise marginal cost < one launch)", len(flood), got)
	}
	s.mu.Lock()
	late := []*request{{simArrival: 0}, {simArrival: 0}, {simArrival: 1000}}
	got = s.formBatchLocked(tn, late)
	s.mu.Unlock()
	if got != 2 {
		t.Errorf("formation over a 1000s-late third arrival took %d rows, want 2 (extra wait dwarfs the saved launch)", got)
	}
}

// TestPaddedStatsSummation checks the padded counters line up across
// every view: per-model, per-device, and the aggregate — including
// traffic of a model that has since been undeployed (retired counters).
func TestPaddedStatsSummation(t *testing.T) {
	s := NewServer(ServerOptions{Devices: t4s(2)})
	defer s.Close()
	cheap2 := func(batch int) int {
		if batch >= 2 {
			return 1 << 20
		}
		return 1 << 22
	}
	for _, name := range []string{"a", "b"} {
		if err := s.Deploy(name, costVariant(cheap2), DeployOptions{
			Buckets: []int{1, 2}, AllowPadding: true,
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.Warm(name); err != nil {
			t.Fatal(err)
		}
	}
	const perModel = 3
	for i := 0; i < perModel; i++ {
		for _, name := range []string{"a", "b"} {
			if _, err := s.Infer(name, sampleInput(int64(i+1)), InferOptions{Priority: PriorityHigh}); err != nil {
				t.Fatal(err)
			}
		}
	}
	stA, _ := s.ModelStats("a")
	stB, _ := s.ModelStats("b")
	if stA.PaddedBatches != perModel || stB.PaddedBatches != perModel {
		t.Fatalf("per-model padded batches %d/%d, want %d each", stA.PaddedBatches, stB.PaddedBatches, perModel)
	}
	if err := s.Undeploy("a"); err != nil {
		t.Fatal(err)
	}
	agg := s.Stats()
	if agg.PaddedBatches != 2*perModel || agg.PaddedRows != 2*perModel {
		t.Errorf("aggregate padded %d batches/%d rows, want %d/%d (undeployed traffic stays counted)",
			agg.PaddedBatches, agg.PaddedRows, 2*perModel, 2*perModel)
	}
	var devSum int64
	for _, d := range agg.Devices {
		devSum += d.PaddedBatches
	}
	if devSum != agg.PaddedBatches {
		t.Errorf("device padded batches sum to %d, want the aggregate %d", devSum, agg.PaddedBatches)
	}
}

// TestSingleBucketShortCircuit pins the guard: a single-bucket model
// with both adaptive flags set must never reach the planner (zero
// planner invocations, not merely zero padded batches).
func TestSingleBucketShortCircuit(t *testing.T) {
	s := NewServer(ServerOptions{Devices: t4s(1)})
	defer s.Close()
	if err := s.Deploy("m", fakeVariant, DeployOptions{
		Buckets: []int{1}, AllowPadding: true, ContinuousBatching: true,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Infer("m", sampleInput(int64(i+1)), InferOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	runs := s.tenants["m"].planRuns
	s.mu.Unlock()
	if runs != 0 {
		t.Errorf("single-bucket model hit the adaptive planner %d times, want 0", runs)
	}
	st, _ := s.ModelStats("m")
	if st.PaddedBatches != 0 || st.BatchSizes[1] != 4 {
		t.Errorf("single-bucket stats %+v, want 4 strict bucket-1 batches", st)
	}
}
