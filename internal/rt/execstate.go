package rt

import (
	"bolt/internal/relay"
	"bolt/internal/tensor"
)

// ExecState is the mutable half of a compiled module: one executor's
// activation arena, per-kernel destination views, and slot
// environment, all derived from the module's static memory plan. The
// Module itself is immutable after compilation, so any number of
// ExecStates can execute the same program concurrently — the serving
// engine keeps one in flight per worker.
//
// States are built by Module.newState and recycled through the
// module's free list (Module.AcquireState / Module.ReleaseState), so a
// steady-state serving loop performs no arena or environment
// allocation at all.
type ExecState struct {
	arena *tensor.Arena
	env   *Env
	dst   []*tensor.Tensor
}

// initProgram derives the immutable per-program metadata every
// ExecState shares from the graph: the static memory plan, its arena
// buffer capacities, the env slots that hold caller-owned input
// tensors, and the memory report. Called once, lazily, under
// m.progOnce.
func (m *Module) initProgram() {
	p := relay.PlanMemory(m.Graph)
	m.plan = p
	m.arenaElems = make([]int, len(p.Buffers))
	for i, b := range p.Buffers {
		m.arenaElems[i] = b.Elems
	}
	for i := range m.Kernels {
		if m.Kernels[i].Node.Op == relay.OpInput {
			m.inputSlots = append(m.inputSlots, m.Kernels[i].Slot)
		}
	}
	r := &m.mem
	for _, n := range m.Graph.Nodes {
		switch n.Op {
		case relay.OpConstant:
			r.ParamBytes += n.Shape.NumElements() * n.DType.Size()
		case relay.OpInput:
		default:
			if b := n.Shape.NumElements() * n.DType.Size(); b > r.PeakActivationBytes {
				r.PeakActivationBytes = b
			}
		}
	}
	r.NaiveActivationBytes = p.NaiveBytes
	r.PlannedArenaBytes = p.ArenaBytes()
	r.ArenaBuffers = len(p.Buffers)
	r.ReuseFactor = p.ReuseFactor()
}

// newState materializes a fresh execution state from the memory plan:
// one arena allocation plus one tensor header per planned node (nodes
// sharing a buffer have disjoint live ranges, so their views are valid
// whenever the executor reads them).
func (m *Module) newState() *ExecState {
	m.progOnce.Do(m.initProgram)
	arena := tensor.NewArena(m.arenaElems)
	dst := make([]*tensor.Tensor, len(m.Kernels))
	for i := range m.Kernels {
		n := m.Kernels[i].Node
		bi, ok := m.plan.Assign[n.ID]
		if !ok {
			continue // inputs and constants live outside the arena
		}
		buf := arena.Buffer(bi)[:n.Shape.NumElements()]
		dst[i] = tensor.View(n.DType, n.Layout, buf, n.Shape...)
	}
	return &ExecState{arena: arena, env: NewEnv(len(m.Kernels), nil), dst: dst}
}

// AcquireState pops a state from the module's free list, building a
// fresh one only when the list is empty. Under a bounded number of
// concurrent callers the pool converges to that many states and the
// hot path stops allocating.
func (m *Module) AcquireState() *ExecState {
	m.poolMu.Lock()
	if n := len(m.free); n > 0 {
		st := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		m.poolMu.Unlock()
		return st
	}
	m.poolMu.Unlock()
	return m.newState()
}

// ReleaseState returns a state to the free list. The caller must be
// done with every tensor view obtained from RunOn on this state: the
// next acquirer will overwrite the arena.
func (m *Module) ReleaseState(st *ExecState) {
	if st == nil {
		return
	}
	// Drop caller-owned references defensively: RunOn clears them on
	// its normal path, but a run that panicked mid-execution (and was
	// recovered by the caller) may not have gotten there.
	st.env.inputs = nil
	for _, s := range m.inputSlots {
		st.env.vals[s] = nil
	}
	m.poolMu.Lock()
	m.free = append(m.free, st)
	m.poolMu.Unlock()
}

// RunOn executes the module on an explicitly held state and returns
// the output as a view into the state's arena. The view stays valid
// until the state's next RunOn or its release — callers that need the
// result past that point must Clone it. Distinct states may run
// concurrently; a single state must not.
func (m *Module) RunOn(st *ExecState, inputs map[string]*tensor.Tensor) *tensor.Tensor {
	st.env.inputs = inputs
	out := m.exec(st.env, st.dst)
	// Drop references to caller-owned tensors: the state persists in
	// the pool and must not keep the previous request's inputs
	// reachable.
	st.env.inputs = nil
	for _, s := range m.inputSlots {
		st.env.vals[s] = nil
	}
	return out
}
