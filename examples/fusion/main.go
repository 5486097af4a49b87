// Persistent kernel fusion: the paper's deepest graph optimization
// (§3.1.1), shown end to end on a back-to-back GEMM pair from a
// recommendation model and a RepVGG-style 3x3+1x1 conv pair.
//
// For each pair the example (1) validates threadblock residence,
// (2) picks RF- vs shared-memory residence automatically, (3) checks
// the fused kernel computes exactly what the unfused pipeline does,
// and (4) reports the modeled speedup, matching Tables 1 and 2.
//
//	go run ./examples/fusion
package main

import (
	"fmt"
	"log"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/persistent"
	"bolt/internal/tensor"
)

func main() {
	dev := gpu.T4()
	relu := cutlass.BiasActivation(cutlass.ActReLU)

	fmt.Println("=== back-to-back GEMM fusion (DLRM-style MLP, Table 1) ===")
	m, n0, k0, n1 := 16384, 64, 256, 16
	layers := []persistent.Layer{{N: n0, K: k0, Epilogue: relu}, {N: n1, K: n0, Epilogue: relu}}
	fused, err := persistent.Build(m, layers, tensor.FP16, dev)
	if err != nil {
		log.Fatal(err)
	}

	// Functional check on a smaller M (same math, faster to verify).
	const mSmall = 128
	a0 := tensor.New(tensor.FP16, mSmall, k0)
	a0.FillRandom(1, 0.5)
	w0 := tensor.New(tensor.FP16, k0, n0)
	w0.FillRandom(2, 0.2)
	w1 := tensor.New(tensor.FP16, n0, n1)
	w1.FillRandom(3, 0.2)
	b0 := tensor.New(tensor.FP16, n0)
	b0.FillRandom(4, 0.5)
	b1 := tensor.New(tensor.FP16, n1)
	b1.FillRandom(5, 0.5)

	small, err := persistent.Build(mSmall, layers, tensor.FP16, dev)
	if err != nil {
		log.Fatal(err)
	}
	got := small.RunInto(nil, a0, []*tensor.Tensor{w0, w1}, []*tensor.Tensor{b0, b1})
	d0 := cutlass.ReferenceGemm(a0, w0, b0, relu)
	want := cutlass.ReferenceGemm(d0, w1, b1, relu)

	fmt.Printf("chain: (%d,%d,%d) -> (%d,%d,%d), both with BiasAdd+ReLU epilogues\n", m, n0, k0, m, n1, n0)
	fmt.Printf("residence chosen: %s (Warp_N == ThreadBlock_N == GEMM_N holds)\n", fused.Residence())
	fmt.Printf("fused == unfused numerically: %v (max diff %.4g)\n",
		tensor.AllClose(got, want, 1e-2, 1e-3), tensor.MaxAbsDiff(got, want))
	unfusedT := persistent.UnfusedTime(m, layers, tensor.FP16, dev)
	fmt.Printf("unfused: %.1f us (2 launches, intermediate through DRAM)\n", unfusedT*1e6)
	fmt.Printf("fused:   %.1f us (1 launch, intermediate in %s)\n", fused.Time(dev)*1e6, fused.Residence())
	fmt.Printf("speedup: %.2fx  (paper Table 1: 1.24-1.46x)\n\n", unfusedT/fused.Time(dev))

	fmt.Println("=== back-to-back Conv2D fusion (RepVGG 3x3 + 1x1, Table 2) ===")
	first := cutlass.Conv3x3(32, 56, 56, 48, 48, 1, 1)
	then := cutlass.Conv1x1(32, first.OutH(), first.OutW(), 48, 48)
	convLayers := []persistent.Layer{{Conv: first, Epilogue: relu}, {Conv: then, Epilogue: relu}}
	cf, err := persistent.Build(0, convLayers, tensor.FP16, dev)
	if err != nil {
		log.Fatal(err)
	}
	unfusedC := persistent.UnfusedTime(0, convLayers, tensor.FP16, dev)
	fmt.Printf("chain: %d^2 %d->%d 3x3 s1  ->  %d^2 %d->%d 1x1 s1 p0\n",
		first.H, first.IC, first.OC, then.H, then.IC, then.OC)
	fmt.Printf("residence chosen: %s\n", cf.Residence())
	fmt.Printf("unfused: %.1f us   fused: %.1f us   speedup: %.2fx  (paper Table 2: 1.10-2.02x)\n\n",
		unfusedC*1e6, cf.Time(dev)*1e6, unfusedC/cf.Time(dev))

	fmt.Println("=== why residence matters: a case fusion must reject ===")
	big := 3072
	if _, ok := persistent.Tile(persistent.Layer{N: big, K: k0}, tensor.FP16, dev); !ok {
		fmt.Printf("GEMM_N = %d: threadblock tile covering all of N would need %d KB of\n", big, 2*(64+big)*32*2/1024)
		fmt.Println("shared memory staging — residence infeasible, so Bolt keeps the GEMMs unfused")
		fmt.Println("(persistent kernels are designed for memory-bound small-N chains, paper §5).")
	}
}
