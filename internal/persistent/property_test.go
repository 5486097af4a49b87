package persistent

import (
	"math/rand"
	"testing"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// randChain draws a random residence-compatible GEMM chain.
func randChain(rng *rand.Rand) (int, []GemmLayer) {
	m := 1024 * (1 + rng.Intn(64))
	depth := 2 + rng.Intn(3)
	relu := cutlass.BiasActivation(cutlass.ActReLU)
	widths := []int{8, 16, 32, 48, 64, 96, 128}
	layers := make([]GemmLayer, depth)
	k := widths[rng.Intn(len(widths))] * 2
	for i := range layers {
		n := widths[rng.Intn(len(widths))]
		layers[i] = GemmLayer{N: n, K: k, Config: b2bConfig(tbn(n), tbn(n)), Epilogue: relu}
		k = n
	}
	return m, layers
}

// Property: whenever ChooseGemmResidence accepts a chain, the fused
// kernel must (a) be a single launch, (b) store only the final layer,
// and (c) never lose to the unfused pipeline by more than noise.
func TestFusedNeverMuchWorseProperty(t *testing.T) {
	d := gpu.T4()
	rng := rand.New(rand.NewSource(31))
	accepted := 0
	for i := 0; i < 100; i++ {
		m, layers := randChain(rng)
		f, err := ChooseGemmResidence(m, layers, d)
		if err != nil {
			continue // residence infeasible for this draw: fine
		}
		accepted++
		desc := f.Desc(d)
		last := layers[len(layers)-1]
		wantStore := float64(m) * float64(last.N) * 2
		if desc.GlobalStoreB != wantStore {
			t.Fatalf("chain %d: store %g != %g", i, desc.GlobalStoreB, wantStore)
		}
		fused := f.Time(d)
		unfused := UnfusedGemmTime(d, m, layers)
		if fused > unfused*1.02 {
			t.Fatalf("chain %d (M=%d, depth %d): fused %.3gus worse than unfused %.3gus",
				i, m, len(layers), fused*1e6, unfused*1e6)
		}
	}
	if accepted < 30 {
		t.Fatalf("only %d/100 random chains accepted — generator or validator too strict", accepted)
	}
}

// Property: fused numerics equal the unfused composition for random
// small chains.
func TestFusedNumericsProperty(t *testing.T) {
	d := gpu.T4()
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 25; i++ {
		_, layers := randChain(rng)
		f, err := ChooseGemmResidence(512, layers, d)
		if err != nil {
			continue
		}
		m := 48 // small M for the functional check
		a := tensor.New(tensor.FP16, m, layers[0].K)
		a.FillRandom(int64(i), 0.5)
		ws := make([]*tensor.Tensor, len(layers))
		bs := make([]*tensor.Tensor, len(layers))
		for j, l := range layers {
			ws[j] = tensor.New(tensor.FP16, l.K, l.N)
			ws[j].FillRandom(int64(i*10+j), 0.2)
			bs[j] = tensor.New(tensor.FP16, l.N)
			bs[j].FillRandom(int64(i*100+j), 0.3)
		}
		small, err := NewFusedGemm(m, f.Layers, f.Kind, d)
		if err != nil {
			t.Fatal(err)
		}
		got := small.RunInto(nil, a, ws, bs)
		cur := a
		for j, l := range layers {
			cur = cutlass.ReferenceGemm(cur, ws[j], bs[j], l.Epilogue)
		}
		if !tensor.AllClose(got, cur, 2e-2, 2e-3) {
			t.Fatalf("chain %d: fused deviates by %g", i, tensor.MaxAbsDiff(got, cur))
		}
	}
}

// Property: the RF-resident register estimate is always at least the
// plain kernel's (fusion can only add pressure) and SMEM residence
// always needs at least the plain kernel's shared memory.
func TestResourcePressureProperty(t *testing.T) {
	d := gpu.T4()
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 100; i++ {
		m, layers := randChain(rng)
		for _, kind := range []Residence{RFResident, SMEMResident} {
			ls := retileForResidence(layers, kind)
			f, err := NewFusedGemm(m, ls, kind, d)
			if err != nil {
				continue
			}
			for _, l := range ls {
				if kind == RFResident && f.regsPerThread() < l.Config.RegsPerThread() {
					t.Fatalf("fused regs %d below plain layer's %d", f.regsPerThread(), l.Config.RegsPerThread())
				}
				if f.sharedMemBytes() < l.Config.SharedMemBytes() {
					t.Fatalf("fused smem %d below plain layer's %d", f.sharedMemBytes(), l.Config.SharedMemBytes())
				}
			}
		}
	}
}
