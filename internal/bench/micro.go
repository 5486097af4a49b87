package bench

import (
	"fmt"

	"bolt/internal/ansor"
	"bolt/internal/cutlass"
	"bolt/internal/models"
	"bolt/internal/persistent"
	"bolt/internal/profiler"
	"bolt/internal/rt"
	"bolt/internal/tensor"
)

// fig1Workloads are the five FP16 GEMMs of Figure 1: two large square
// GEMMs plus the three BERT GEMMs at batch 32 / sequence length 40.
func fig1Workloads() []struct{ M, N, K int } {
	ws := []struct{ M, N, K int }{
		{1024, 1024, 1024},
		{2048, 2048, 2048},
	}
	ws = append(ws, models.BERTGemms(32, 40)...)
	return ws
}

// Figure1 reproduces the motivation benchmark: Ansor-generated FP16
// GEMM speed normalized to cuBLAS. Paper shape: Ansor achieves less
// than ~20% of the vendor library.
func (s *Suite) Figure1() *Table {
	t := &Table{
		ID:      "fig1",
		Title:   "Ansor vs cuBLAS, FP16 GEMM (normalized speed, cuBLAS = 1.0)",
		Columns: []string{"workload (M,N,K)", "Ansor", "cuBLAS", "Ansor/cuBLAS"},
		Notes: []string{
			fmt.Sprintf("Ansor tuned with %d trials per workload", s.MicroTrials),
			"paper: Ansor reaches <20% of cuBLAS on tensor-core-eligible FP16 GEMMs",
		},
	}
	for _, w := range fig1Workloads() {
		tuner, _ := s.newAnsor()
		res := tuner.TuneGemm(w.M, w.N, w.K, s.MicroTrials, tensor.FP16)
		lib := s.Lib.GemmTime(w.M, w.N, w.K)
		ratio := lib / res.Time // speeds normalized to cuBLAS
		t.AddRow(fmt.Sprintf("(%d,%d,%d)", w.M, w.N, w.K), f2(ratio), f2(1.0), pct(ratio))
	}
	return t
}

// fig8aWorkloads are the six GEMMs of Figure 8a.
func fig8aWorkloads() []struct{ M, N, K int } {
	return []struct{ M, N, K int }{
		{32, 768, 768},
		{1280, 3072, 768},
		{1280, 768, 768},
		{1280, 768, 3072},
		{2048, 2048, 2048},
		{1024, 1024, 1024},
	}
}

// Figure8a reproduces the GEMM microbenchmark: Bolt vs Ansor
// (normalized speed, Ansor = 1.0). Paper shape: 6.1-9.5x on
// compute-intensive workloads, 1.9x on the memory-bound (32,768,768).
func (s *Suite) Figure8a() *Table {
	t := &Table{
		ID:      "fig8a",
		Title:   "GEMM performance, Bolt vs Ansor (normalized speed, Ansor = 1.0)",
		Columns: []string{"workload (M,N,K)", "Ansor", "Bolt", "Bolt TFLOPS"},
		Notes: []string{
			"paper: Bolt 6.1-9.5x on compute-intensive GEMMs, 1.9x on (32,768,768)",
		},
	}
	p, _ := s.newProfiler()
	for _, w := range fig8aWorkloads() {
		res, err := p.ProfileGemm(profiler.GemmWorkload{M: w.M, N: w.N, K: w.K, DType: tensor.FP16})
		if err != nil {
			panic(err)
		}
		tuner, _ := s.newAnsor()
		ar := tuner.TuneGemm(w.M, w.N, w.K, s.MicroTrials, tensor.FP16)
		speedup := ar.Time / res.Time
		tf := 2 * float64(w.M) * float64(w.N) * float64(w.K) / res.Time / 1e12
		t.AddRow(fmt.Sprintf("(%d,%d,%d)", w.M, w.N, w.K), f2(1.0), f2(speedup), f1(tf))
	}
	return t
}

// fig8bWorkloads are the seven ResNet-50 3x3 convolutions of Figure 8b
// (batch 32, padding (1,1)).
func fig8bWorkloads() []cutlass.ConvShape {
	return []cutlass.ConvShape{
		cutlass.Conv3x3(32, 56, 56, 64, 64, 1, 1),
		cutlass.Conv3x3(32, 56, 56, 128, 128, 2, 1),
		cutlass.Conv3x3(32, 28, 28, 128, 128, 1, 1),
		cutlass.Conv3x3(32, 28, 28, 256, 256, 2, 1),
		cutlass.Conv3x3(32, 14, 14, 256, 256, 1, 1),
		cutlass.Conv3x3(32, 14, 14, 512, 512, 2, 1),
		cutlass.Conv3x3(32, 7, 7, 512, 512, 1, 1),
	}
}

// Figure8b reproduces the Conv2D microbenchmark. Paper shape: Bolt
// 2.7-3.5x faster than Ansor across all seven workloads.
func (s *Suite) Figure8b() *Table {
	t := &Table{
		ID:      "fig8b",
		Title:   "Conv2D performance, Bolt vs Ansor (normalized speed, Ansor = 1.0)",
		Columns: []string{"workload (HW, IC->OC, stride)", "Ansor", "Bolt", "Bolt TFLOPS"},
		Notes:   []string{"paper: Bolt 2.7-3.5x across ResNet-50 3x3 convs"},
	}
	p, _ := s.newProfiler()
	for _, shape := range fig8bWorkloads() {
		res, err := p.ProfileConv(profiler.ConvWorkload{Shape: shape, DType: tensor.FP16})
		if err != nil {
			panic(err)
		}
		m, n, k := shape.ImplicitGemm()
		tuner, _ := s.newAnsor()
		ar := tuner.TuneConv(ansor.ConvGeometry{M: m, N: n, K: k,
			ActivationElems: shape.N * shape.H * shape.W * shape.IC}, s.MicroTrials, tensor.FP16)
		speedup := ar.Time / res.Time
		t.AddRow(fmt.Sprintf("%d^2, %d->%d, (%d,%d)", shape.H, shape.IC, shape.OC, shape.StrideH, shape.StrideW),
			f2(1.0), f2(speedup), f1(shape.FLOPs()/res.Time/1e12))
	}
	return t
}

// epilogueActivations are the four activations of Figure 9.
var epilogueActivations = []cutlass.Activation{
	cutlass.ActReLU, cutlass.ActGELU, cutlass.ActHardswish, cutlass.ActSoftplus,
}

// Figure9a reproduces GEMM epilogue fusion: the pattern
// GEMM+BiasAdd+Activation with the epilogue fused into the kernel vs
// computed as a separate TVM elementwise kernel. Paper shape: average
// speedup ~1.45x on the (1280, 3072, 768) GEMM.
func (s *Suite) Figure9a() *Table {
	t := &Table{
		ID:      "fig9a",
		Title:   "GEMM epilogue fusion, M=1280 N=3072 K=768 (normalized speed, w/o fusion = 1.0)",
		Columns: []string{"epilogue", "Bolt w/o fusion", "Bolt w/ fusion"},
		Notes:   []string{"paper: average GEMM epilogue-fusion speedup 1.45x"},
	}
	m, n, k := 1280, 3072, 768
	p, _ := s.newProfiler()
	res, err := p.ProfileGemm(profiler.GemmWorkload{M: m, N: n, K: k, DType: tensor.FP16})
	if err != nil {
		panic(err)
	}
	for _, act := range epilogueActivations {
		// Without fusion: plain GEMM kernel + separate bias+activation
		// elementwise kernel (an extra launch plus a full activation
		// read+write).
		plain := &cutlass.Gemm{Config: res.Config, Epilogue: cutlass.DefaultEpilogue()}
		unfused := plain.Time(s.Dev, m, n, k) + s.Dev.KernelTime(cutlass.ElementwiseDesc(s.Dev, m*n, act, tensor.FP16))
		// With fusion: the epilogue runs in the GEMM's epilogue phase.
		fused := (&cutlass.Gemm{Config: res.Config, Epilogue: cutlass.BiasActivation(act)}).Time(s.Dev, m, n, k)
		t.AddRow(act.String(), f2(1.0), f2(unfused/fused))
	}
	return t
}

// Figure9b reproduces Conv2D epilogue fusion on the 56x56, 64->64, 3x3
// stride-1 convolution. Paper shape: average speedup ~1.38x.
func (s *Suite) Figure9b() *Table {
	t := &Table{
		ID:      "fig9b",
		Title:   "Conv2D epilogue fusion, 56^2 64->64 3x3 s1 p1 (normalized speed, w/o fusion = 1.0)",
		Columns: []string{"epilogue", "Bolt w/o fusion", "Bolt w/ fusion"},
		Notes:   []string{"paper: average Conv2D epilogue-fusion speedup 1.38x"},
	}
	shape := cutlass.Conv3x3(32, 56, 56, 64, 64, 1, 1)
	p, _ := s.newProfiler()
	res, err := p.ProfileConv(profiler.ConvWorkload{Shape: shape, DType: tensor.FP16})
	if err != nil {
		panic(err)
	}
	m, n, _ := shape.ImplicitGemm()
	for _, act := range epilogueActivations {
		plain := &cutlass.Conv2D{Shape: shape, Config: res.Config, Epilogue: cutlass.DefaultEpilogue()}
		unfused := plain.Time(s.Dev) + s.Dev.KernelTime(cutlass.ElementwiseDesc(s.Dev, m*n, act, tensor.FP16))
		fused := (&cutlass.Conv2D{Shape: shape, Config: res.Config, Epilogue: cutlass.BiasActivation(act)}).Time(s.Dev)
		t.AddRow(act.String(), f2(1.0), f2(unfused/fused))
	}
	return t
}

// Table1 reproduces persistent GEMM fusion on the recommendation-model
// pairs. Paper shape: 1.24x-1.46x over the epilogue-fused unfused
// baseline.
func (s *Suite) Table1() *Table {
	t := &Table{
		ID:      "tab1",
		Title:   "Back-to-back GEMM fusion with persistent kernels (normalized speed)",
		Columns: []string{"1st GEMM (M,N,K)", "2nd GEMM (M,N,K)", "w/o fuse", "w/ fuse", "residence"},
		Notes:   []string{"paper: 1.24-1.46x; each GEMM carries a ReLU epilogue"},
	}
	relu := cutlass.BiasActivation(cutlass.ActReLU)
	for _, w := range models.Table1Workloads() {
		layers := []persistent.Layer{{N: w.N0, K: w.K0, Epilogue: relu}, {N: w.N1, K: w.N0, Epilogue: relu}}
		f, err := persistent.Build(w.M, layers, tensor.FP16, s.Dev)
		if err != nil {
			panic(err)
		}
		speedup := persistent.UnfusedTime(w.M, layers, tensor.FP16, s.Dev) / f.Time(s.Dev)
		t.AddRow(fmt.Sprintf("%d %d %d", w.M, w.N0, w.K0),
			fmt.Sprintf("%d %d %d", w.M, w.N1, w.N0),
			f2(1.0), f2(speedup), f.Residence().String())
	}
	return t
}

// Table2 reproduces persistent Conv2D fusion on the RepVGG 3x3+1x1
// pairs. Paper shape: 1.10x-2.02x.
func (s *Suite) Table2() *Table {
	t := &Table{
		ID:      "tab2",
		Title:   "Back-to-back Conv2D fusion with persistent kernels (normalized speed)",
		Columns: []string{"3x3 Conv2D (HW, IC->OC, s)", "1x1 Conv2D (HW, IC->OC)", "w/o fuse", "w/ fuse", "residence"},
		Notes:   []string{"paper: 1.10-2.02x; each Conv2D carries BiasAdd+ReLU"},
	}
	relu := cutlass.BiasActivation(cutlass.ActReLU)
	for _, w := range models.Table2Workloads() {
		layers := []persistent.Layer{{Conv: w.First, Epilogue: relu}, {Conv: w.Then, Epilogue: relu}}
		f, err := persistent.Build(0, layers, tensor.FP16, s.Dev)
		if err != nil {
			panic(err)
		}
		speedup := persistent.UnfusedTime(0, layers, tensor.FP16, s.Dev) / f.Time(s.Dev)
		t.AddRow(fmt.Sprintf("%d^2, %d->%d, (%d,%d)", w.First.H, w.First.IC, w.First.OC, w.First.StrideH, w.First.StrideW),
			fmt.Sprintf("%d^2, %d->%d", w.Then.H, w.Then.IC, w.Then.OC),
			f2(1.0), f2(speedup), f.Residence().String())
	}
	return t
}

// Table3 reproduces automated kernel padding: unaligned-channel convs
// computed at alignment 2 vs padded to alignment 8 (pad kernel cost
// included). Paper shape: ~1.6-2.0x speedup, padding costing 9-24% of
// the total.
func (s *Suite) Table3() *Table {
	t := &Table{
		ID:      "tab3",
		Title:   "Automated kernel padding (normalized speed; cost = pad time / total time)",
		Columns: []string{"N", "HW", "IC->OC", "kernel", "unpadded", "padded", "cost"},
		Notes: []string{
			"unpadded convs run alignment-2 kernels; padded convs run alignment-8 plus an explicit pad kernel",
			"paper: ~1.8x average speedup at 9-24% padding cost",
		},
	}
	p, _ := s.newProfiler()
	for _, w := range models.Table3Workloads() {
		shape := w.Shape()
		// Unpadded: profile with the native (unaligned) channels.
		resU, err := p.ProfileConv(profiler.ConvWorkload{Shape: shape, DType: tensor.FP16})
		if err != nil {
			panic(err)
		}
		unpadded := resU.Time

		// Padded: channels rounded to 8; alignment-8 kernel + pad copy.
		padded := shape
		padded.IC = (shape.IC + 7) / 8 * 8
		resP, err := p.ProfileConv(profiler.ConvWorkload{Shape: padded, DType: tensor.FP16})
		if err != nil {
			panic(err)
		}
		padKernel := s.Dev.KernelTime(rt.PadDesc(shape.N*shape.H*shape.W*shape.IC,
			shape.N*shape.H*shape.W*padded.IC, tensor.FP16))
		total := resP.Time + padKernel
		t.AddRow(fmt.Sprint(w.N), fmt.Sprintf("%d,%d", w.H, w.W),
			fmt.Sprintf("%d->%d", w.IC, w.OC), fmt.Sprintf("(%d,%d)", w.KH, w.KW),
			f2(1.0), f2(unpadded/total), pct(padKernel/total))
	}
	return t
}
