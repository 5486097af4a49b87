// Package rt is the runtime: it executes compiled modules functionally
// (for correctness validation on the emulated FP16 numerics) and prices
// them on the device model (for all performance experiments).
//
// A Module is the artifact Bolt's BYOC flow produces (paper Figure 3):
// a sequence of kernels — templated CUTLASS kernels for the Bolt
// subgraph, plain TVM kernels for the rest — compiled "into a single
// runtime file".
//
// There is one way to run a module. Execution is slot-based and
// memory-planned: every kernel's value lives at a dense slot index (no
// map lookups on the hot path), and intermediate tensors are views into
// a liveness-planned arena that is allocated once and recycled across
// kernels and across Run calls. The module derives that plan from its
// Graph on first use, whoever built it.
package rt

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"bolt/internal/gpu"
	"bolt/internal/relay"
	"bolt/internal/tensor"
)

// Kernel is one launchable unit in a compiled module.
type Kernel struct {
	Name string
	// Node is the graph node this kernel implements.
	Node *relay.Node
	// Slot is the dense index of this kernel's value in the execution
	// environment (the node's topological position).
	Slot int
	// Desc prices the launch; a zero GridBlocks Desc (folded glue ops,
	// compile-time constants) costs nothing.
	Desc gpu.KernelDesc
	// Launches is the number of device launches (0 for folded ops).
	Launches int
	// Source is the emitted CUDA-like code (Bolt kernels only).
	Source string
	// Exec computes the node's output. A non-nil dst is the kernel's
	// planned destination: the kernel must write its result there and
	// return it. Inputs and constants get a nil dst and return their
	// tensor; for any other kernel a nil dst means allocate.
	Exec func(env *Env, dst *tensor.Tensor) *tensor.Tensor
}

// Env holds tensors materialized during execution, indexed by kernel
// slot. Values are a flat slice so the executor's inner loop performs
// no hashing.
type Env struct {
	vals   []*tensor.Tensor
	inputs map[string]*tensor.Tensor
}

// NewEnv returns an environment with n value slots.
func NewEnv(n int, inputs map[string]*tensor.Tensor) *Env {
	return &Env{vals: make([]*tensor.Tensor, n), inputs: inputs}
}

// Value returns the computed tensor at a slot.
func (e *Env) Value(slot int) *tensor.Tensor {
	v := e.vals[slot]
	if v == nil {
		panic(fmt.Sprintf("rt: slot %d not yet computed", slot))
	}
	return v
}

// Input returns a named graph input.
func (e *Env) Input(name string) *tensor.Tensor {
	v, ok := e.inputs[name]
	if !ok {
		panic(fmt.Sprintf("rt: missing input %q", name))
	}
	return v
}

// TuningStats summarizes the compilation pipeline's tuning work: how
// many GEMM/Conv tasks the graph presented, how dedup and the
// persistent tuning cache shrank them, and what the unresolved rest
// cost to profile. TuningSeconds is the *critical path* of the
// parallel profiling pool (max across workers, not the sum), so it
// models concurrent profiling honestly.
type TuningStats struct {
	// Workloads is the total number of GEMM/Conv tuning tasks extracted
	// from the graph (before dedup).
	Workloads int
	// UniqueWorkloads is the task count after dedup: repeated shapes
	// (e.g. BERT's identical attention GEMMs) collapse to one.
	UniqueWorkloads int
	// CacheHits is how many unique workloads were resolved from the
	// persistent tuning log without any measurement.
	CacheHits int
	// ProfiledWorkloads is how many unique workloads were measured.
	ProfiledWorkloads int
	// Measurements is the total number of candidate kernels measured.
	Measurements int
	// SamplePrograms is the number of distinct sample programs
	// (templates) compiled for this run.
	SamplePrograms int
	// TuningSeconds is the simulated critical-path profiling cost.
	TuningSeconds float64
	// EnumeratedCandidates is the total number of candidate kernels the
	// architecture-guided search enumerated across profiled workloads
	// (Measurements <= EnumeratedCandidates; the difference is what
	// cost-model guidance pruned).
	EnumeratedCandidates int
	// SkippedCandidates is how many enumerated candidates guidance
	// decided not to measure (top-k pruning plus fully predicted
	// workloads).
	SkippedCandidates int
	// PredictedWorkloads is how many unique workloads were resolved
	// measurement-free from the cost model (trust gate).
	PredictedWorkloads int
	// PredictionError is the mean relative error of the cost model's
	// prediction for the chosen config across measured workloads where
	// a trained model was consulted; -1 when no such workload exists.
	PredictionError float64
}

// Module is a compiled, runnable, priceable model. After compilation
// the module is immutable: all per-run mutable state (the activation
// arena, destination views, and slot environment) lives in ExecState,
// so any number of goroutines may Run the same module concurrently.
type Module struct {
	Graph   *relay.Graph
	Kernels []Kernel
	Device  *gpu.Device
	// Tuning reports what compilation's tuning pipeline did (zero for
	// the baseline tuner, which accounts its search on its own clock).
	Tuning TuningStats

	// progOnce derives the immutable per-program metadata shared by
	// every ExecState from Graph: the static memory plan, its arena
	// buffer capacities, the input slots and the memory report.
	progOnce   sync.Once
	plan       *relay.MemoryPlan
	arenaElems []int
	// inputSlots are the env slots holding caller-owned input tensors,
	// cleared after each planned run so a pooled state does not retain
	// the previous request's data.
	inputSlots []int
	mem        MemoryReport

	// poolMu guards free, the sync.Pool-style free list of execution
	// states Run recycles through.
	poolMu sync.Mutex
	free   []*ExecState
}

// Run executes the module functionally and returns the output tensor.
//
// Run acquires a pooled execution state, writes intermediates into its
// liveness-planned arena, copies the output out, and releases the
// state — so the returned tensor is caller-owned and Run is safe for
// any number of concurrent callers. After warmup the pool holds one
// state per peak-concurrent caller and the hot path performs no arena
// or environment allocation. Callers that want the zero-copy view
// semantics instead manage a state explicitly with AcquireState /
// RunOn / ReleaseState.
func (m *Module) Run(inputs map[string]*tensor.Tensor) *tensor.Tensor {
	st := m.AcquireState()
	out := m.RunOn(st, inputs).Clone()
	m.ReleaseState(st)
	return out
}

// RunUnplanned executes with the clone-based reference semantics:
// every kernel writes a fresh output and nothing is recycled. It is
// the oracle the planned executor is validated against bit-for-bit,
// and is safe for concurrent callers.
//
// Each planned destination is freshly allocated with the node's
// annotated dtype — the same typing the planned arena views use. Under
// mixed precision a node's dtype can differ from its operand's (an
// INT8 anchor feeding float glue), and letting each op allocate from
// its input's dtype would quantize on the wrong grid and diverge from
// the planned path.
func (m *Module) RunUnplanned(inputs map[string]*tensor.Tensor) *tensor.Tensor {
	m.progOnce.Do(m.initProgram)
	dst := make([]*tensor.Tensor, len(m.Kernels))
	for i := range m.Kernels {
		n := m.Kernels[i].Node
		if _, ok := m.plan.Assign[n.ID]; ok {
			dst[i] = tensor.NewWithLayout(n.DType, n.Layout, n.Shape...)
		}
	}
	return m.exec(NewEnv(len(m.Kernels), inputs), dst)
}

func (m *Module) exec(env *Env, dst []*tensor.Tensor) *tensor.Tensor {
	var out *tensor.Tensor
	for i := range m.Kernels {
		k := &m.Kernels[i]
		v := k.Exec(env, dst[i])
		env.vals[k.Slot] = v
		if k.Node == m.Graph.Output {
			out = v
		}
	}
	if out == nil {
		panic("rt: output node was never executed")
	}
	return out
}

// Time returns the modeled end-to-end latency of one inference batch
// (seconds): the sum of every kernel launch.
func (m *Module) Time() float64 {
	total := 0.0
	for i := range m.Kernels {
		if m.Kernels[i].Launches > 0 {
			total += m.Device.KernelTime(m.Kernels[i].Desc)
		}
	}
	return total
}

// Throughput returns images/second for the given batch size (the
// paper's Figure 10a metric).
func (m *Module) Throughput(batch int) float64 {
	t := m.Time()
	if t <= 0 || math.IsInf(t, 1) {
		return 0
	}
	return float64(batch) / t
}

// LaunchCount returns the number of device kernel launches per batch.
func (m *Module) LaunchCount() int {
	n := 0
	for i := range m.Kernels {
		n += m.Kernels[i].Launches
	}
	return n
}

// KernelTimeRow is a per-kernel time breakdown entry for diagnostics
// (cmd/boltc -report).
type KernelTimeRow struct {
	Name    string
	Op      string
	Time    float64
	Percent float64
}

// Report summarizes where the time goes, slowest kernel first.
func (m *Module) Report() []KernelTimeRow {
	total := m.Time()
	rows := make([]KernelTimeRow, 0, len(m.Kernels))
	for i := range m.Kernels {
		k := &m.Kernels[i]
		if k.Launches == 0 {
			continue
		}
		t := m.Device.KernelTime(k.Desc)
		rows = append(rows, KernelTimeRow{Name: k.Name, Op: k.Node.Op.String(), Time: t, Percent: 100 * t / total})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Time > rows[j].Time })
	return rows
}

// Sources concatenates the emitted kernel sources (the "generated
// CUDA" a user would inspect).
func (m *Module) Sources() string {
	var b strings.Builder
	for i := range m.Kernels {
		if src := m.Kernels[i].Source; src != "" {
			b.WriteString(src)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// MemoryReport summarizes device-memory usage of a compiled module.
type MemoryReport struct {
	// ParamBytes is the total weight/bias storage, including padded
	// weights and the pre-allocated layout/padding buffers Bolt adds to
	// the model's parameters (paper §3.2.3).
	ParamBytes int
	// PeakActivationBytes is the largest single intermediate tensor
	// (the lower bound no plan can beat).
	PeakActivationBytes int
	// NaiveActivationBytes sums every intermediate tensor — what a
	// clone-per-op executor allocates over one run.
	NaiveActivationBytes int
	// PlannedArenaBytes is the footprint of the liveness-planned arena
	// the executor actually allocates.
	PlannedArenaBytes int
	// ArenaBuffers is the number of distinct reusable buffers.
	ArenaBuffers int
	// ReuseFactor is NaiveActivationBytes / PlannedArenaBytes: how many
	// times over the arena is recycled within one run.
	ReuseFactor float64
}

// Memory reports the module's parameter storage and the memory plan
// it executes on.
func (m *Module) Memory() MemoryReport {
	m.progOnce.Do(m.initProgram)
	return m.mem
}

// TemplatedKernels counts the launched anchor kernels: the selected
// templates that the final module build must instantiate and compile
// into the runtime file.
func (m *Module) TemplatedKernels() int {
	n := 0
	for i := range m.Kernels {
		if m.Kernels[i].Launches > 0 && m.Kernels[i].Node.IsAnchor() {
			n++
		}
	}
	return n
}
