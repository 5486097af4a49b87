package costmodel

import (
	"math"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// NumFeatures is the length of every feature vector.
const NumFeatures = 35

// log2p1 holds log2(x+1) for the small integers most features take the
// log of: the tiles, alignments and SM counts.
var log2p1 = func() (t [1025]float64) {
	for x := range t {
		t[x] = math.Log2(float64(x) + 1)
	}
	return t
}()

// Features extracts the model's input vector for one templated-kernel
// candidate: the CUTLASS template parameters, the workload geometry,
// occupancy-derived launch structure (grid size, waves, resident
// warps — all statically derivable, no measurement), and the device
// class. Pass conv for convolution workloads (m, n, k are then the
// implicit-GEMM dims) and nil for plain GEMMs.
//
// The vector has the same NumFeatures entries for every kind of
// workload, so one Predictor can learn across GEMM and Conv tasks on
// several devices at once.
func Features(cfg cutlass.GemmConfig, m, n, k int, conv *cutlass.ConvShape, dev *gpu.Device) []float64 {
	return appendFeatures(make([]float64, 0, NumFeatures), cfg, m, n, k, conv, dev)
}

// AppendFeatures appends the model's input vector for cfg on this
// workload, on dev (the device it names), to f.
func (w *Workload) AppendFeatures(f []float64, cfg cutlass.GemmConfig, dev *gpu.Device) []float64 {
	var conv *cutlass.ConvShape
	if w.Conv != (cutlass.ConvShape{}) {
		conv = &w.Conv
	}
	return appendFeatures(f, cfg, w.M, w.N, w.K, conv, dev)
}

func appendFeatures(f []float64, cfg cutlass.GemmConfig, m, n, k int, conv *cutlass.ConvShape, dev *gpu.Device) []float64 {
	lg := func(x float64) float64 { return math.Log2(x + 1) }
	lgi := func(x int) float64 {
		if uint(x) < uint(len(log2p1)) {
			return log2p1[x]
		}
		return lg(float64(x))
	}

	tilesM := (m + cfg.TB.M - 1) / cfg.TB.M
	tilesN := (n + cfg.TB.N - 1) / cfg.TB.N
	grid := tilesM * tilesN
	kIters := (k + cfg.TB.K - 1) / cfg.TB.K

	occ := dev.Occupancy(gpu.KernelDesc{
		ThreadsPerBlock: cfg.Threads(),
		RegsPerThread:   cfg.RegsPerThread(),
		SharedMemBytes:  cfg.SharedMemBytes(),
	})
	// Wave quantization: blocks on the busiest SM in steady state (the
	// occupancy-rule launch structure, statically derivable).
	waves, critical := 0, 0
	if slots := occ.BlocksPerSM * dev.SMs; slots > 0 {
		waves = (grid + slots - 1) / slots
		full := grid / slots
		tail := grid % slots
		critical = full*occ.BlocksPerSM + (tail+dev.SMs-1)/dev.SMs
	}
	underutil := lgi(dev.SMs) - lgi(grid)
	if underutil < 0 {
		underutil = 0
	}
	alignAB := cfg.AlignA
	if cfg.AlignB < alignAB {
		alignAB = cfg.AlignB
	}

	// Log-domain roofline components. These are compile-time formulae
	// over the template parameters — the analytic issue-efficiency
	// model CUTLASS-style configs expose, per-block work, and a DRAM
	// traffic estimate under swizzled L2 reuse — not measurements. A
	// linear model over log components can reconstruct a multiplicative
	// cost model, which is exactly the regression's job.
	issueLg := math.Log2(cfg.IssueEffForK(k) + 1e-6)
	// Steady-state residency on the busiest SM (the simulator's wave
	// distribution, reproduced from the same occupancy rules).
	conc := grid
	if slots := occ.BlocksPerSM * dev.SMs; conc > slots {
		conc = slots
	}
	activeSMs := dev.SMs
	if conc < activeSMs {
		activeSMs = conc
	}
	lat := 0.0
	if activeSMs > 0 {
		perSM := float64(conc) / float64(activeSMs) * float64(cfg.WarpCount())
		lat = gpu.LatencyHidingEff(int(math.Round(perSM)))
	}
	latLg := math.Log2(lat + 1e-6)
	vecLg := math.Log2(gpu.VectorEff(alignAB, cfg.DType) + 1e-6)
	esize := float64(cfg.DType.Size())
	perBlockLg := math.Log2(float64(cfg.TB.M)*float64(cfg.TB.N)*float64(k) + 1)
	g := 1 << cfg.SwizzleLog
	if g > tilesM {
		g = tilesM
	}
	if g > tilesN {
		g = tilesN
	}
	if g < 1 {
		g = 1
	}
	// Shrink the swizzle group while its pipeline slice overflows L2,
	// then price redundant re-reads with the L2 residency discount —
	// the same static traffic estimate the templates are priced with.
	for g > 1 && g*(cfg.TB.M+cfg.TB.N)*cfg.TB.K*cfg.Stages*int(esize)*4 > dev.L2Bytes {
		g /= 2
	}
	aFoot := float64(m) * float64(k) * esize
	bFoot := float64(k) * float64(n) * esize
	traffic := cutlass.L2Discounted(dev, aFoot, (tilesN+g-1)/g) +
		cutlass.L2Discounted(dev, bFoot, (tilesM+g-1)/g) +
		float64(m)*float64(n)*esize
	trafficLg := math.Log2(traffic + 1)

	f = append(f,
		1, // bias
		lgi(cfg.TB.M), lgi(cfg.TB.N), lgi(cfg.TB.K),
		lgi(cfg.Warp.M*cfg.Warp.N),
		float64(cfg.WarpCount()),
		float64(cfg.Stages),
		float64(cfg.SwizzleLog),
		lgi(alignAB), lgi(cfg.AlignC),
		lgi(m), lgi(n), lgi(k),
		lgi(grid), lgi(kIters),
		underutil,
		lgi(waves),
		lgi(critical),
		float64(occ.WarpsPerSM),
		occ.Fraction,
		issueLg,
		latLg,
		vecLg,
		lgi(activeSMs),
		perBlockLg,
		trafficLg,
		lgi(cfg.SharedMemBytes()),
		lgi(dev.SMs),
		lg(dev.PeakTFLOPS(cfg.Op, cfg.DType)),
		lg(dev.DRAMBWGBs),
	)
	// Dtype indicators: mixed-precision serving trains one model over
	// FP32/FP16/INT8 candidates, and peak TFLOPS alone cannot separate
	// e.g. element-size effects on the SIMT path from op-class effects.
	// FP16 — the zoo's authored precision — is the all-zeros baseline,
	// so FP16-only training data yields the exact pre-mixed-precision
	// regression (all-zero columns draw zero weight). A saved model
	// holds measurements, not vectors, so the vector can grow: the next
	// fit derives the new layout for every row.
	switch cfg.DType {
	case tensor.FP32:
		f = append(f, 1, 0)
	case tensor.INT8:
		f = append(f, 0, 1)
	default:
		f = append(f, 0, 0)
	}
	if conv != nil {
		f = append(f, 1, lgi(conv.KH*conv.KW), lgi(conv.StrideH*conv.StrideW))
	} else {
		f = append(f, 0, 0, 0)
	}
	return f
}
