// Package cublaslike models a traditional fixed-function vendor
// library (cuBLAS / cuDNN): a closed set of hand-optimized kernels
// behind a rigid API.
//
// Unlike templated CUTLASS, the primitive set is fixed — FP16 GEMM and
// convolution with at most a bias+ReLU epilogue — and cannot be
// extended with custom activations or persistent fusion. Kernel
// selection uses a built-in shape heuristic over a small pre-tuned
// configuration table, which is what vendor libraries ship after
// exhaustive offline tuning; this delivers hardware-native performance
// for supported ops (paper Figure 1's upper line) but zero
// flexibility.
package cublaslike

import (
	"fmt"

	"bolt/internal/cutlass"
	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// Library is a handle to the vendor library on one device
// (cublasHandle_t, morally).
type Library struct {
	dev     *gpu.Device
	configs []cutlass.GemmConfig
}

// New opens the library for a device, installing its pre-tuned kernel
// table.
func New(dev *gpu.Device) *Library {
	inst := cutlass.InstructionShape(dev.Arch)
	stages := 2
	if dev.Arch >= gpu.SM80 {
		stages = 3
	}
	mk := func(tbM, tbN, tbK, wM, wN, swz int) cutlass.GemmConfig {
		return cutlass.GemmConfig{
			TB:   cutlass.Shape3{M: tbM, N: tbN, K: tbK},
			Warp: cutlass.Shape3{M: wM, N: wN, K: tbK},
			Inst: inst, Stages: stages, SwizzleLog: swz,
			AlignA: 8, AlignB: 8, AlignC: 8,
			Op: gpu.OpClassTensorOp, DType: tensor.FP16,
		}
	}
	lib := &Library{dev: dev}
	// The shipped kernel table: large, medium, small, and skinny tiles.
	lib.configs = []cutlass.GemmConfig{
		mk(256, 128, 32, 64, 64, 2),
		mk(128, 256, 32, 64, 64, 2),
		mk(128, 128, 32, 64, 64, 2),
		mk(128, 64, 32, 64, 32, 1),
		mk(64, 128, 32, 32, 64, 1),
		mk(64, 64, 32, 32, 32, 1),
		mk(64, 32, 32, 32, 32, 1),
		mk(32, 64, 32, 32, 32, 1),
	}
	valid := lib.configs[:0]
	for _, c := range lib.configs {
		if c.Validate(dev) == nil {
			valid = append(valid, c)
		}
	}
	lib.configs = valid
	return lib
}

// narrowAlign relaxes a config's alignment for shapes the 128-bit
// kernels cannot serve (the library silently falls back to slower
// kernels, it does not pad — padding is Bolt's trick).
func narrowAlign(c cutlass.GemmConfig, m, n, k int) cutlass.GemmConfig {
	for _, a := range []int{8, 4, 2, 1} {
		c.AlignA, c.AlignB, c.AlignC = a, a, a
		if c.SupportsProblem(m, n, k) {
			return c
		}
	}
	return c
}

// selectConfig applies the vendor heuristic: try every table entry on
// the internal performance model and take the fastest — the moral
// equivalent of cublasLt's pre-baked heuristics.
func (l *Library) selectConfig(m, n, k int) cutlass.GemmConfig {
	var best cutlass.GemmConfig
	bestT := -1.0
	for _, c := range l.configs {
		c = narrowAlign(c, m, n, k)
		g := &cutlass.Gemm{Config: c, Epilogue: cutlass.DefaultEpilogue()}
		t := l.dev.KernelTime(g.Desc(l.dev, m, n, k))
		if bestT < 0 || t < bestT {
			bestT = t
			best = c
		}
	}
	return best
}

// GemmTime prices D = A·B for an m×n×k FP16 GEMM through the library's
// selected kernel.
func (l *Library) GemmTime(m, n, k int) float64 {
	cfg := l.selectConfig(m, n, k)
	g := &cutlass.Gemm{Config: cfg, Epilogue: cutlass.DefaultEpilogue()}
	return l.dev.KernelTime(g.Desc(l.dev, m, n, k))
}

// Gemm executes the GEMM functionally through the selected kernel.
func (l *Library) Gemm(a, b *tensor.Tensor) *tensor.Tensor {
	as, bs := a.Shape(), b.Shape()
	cfg := l.selectConfig(as[0], bs[1], as[1])
	g := &cutlass.Gemm{Config: cfg, Epilogue: cutlass.DefaultEpilogue()}
	return g.RunInto(nil, a, b, nil)
}

// ConvTime prices a forward convolution through the library.
func (l *Library) ConvTime(s cutlass.ConvShape) float64 {
	m, n, k := s.ImplicitGemm()
	cfg := l.selectConfig(m, n, k)
	// Conv alignment is constrained by channels.
	for _, a := range []int{8, 4, 2, 1} {
		if s.IC%a == 0 && s.OC%a == 0 {
			cfg.AlignA, cfg.AlignB, cfg.AlignC = a, a, a
			break
		}
	}
	conv := &cutlass.Conv2D{Shape: s, Config: cfg, Epilogue: cutlass.DefaultEpilogue()}
	return l.dev.KernelTime(conv.Desc(l.dev))
}

// SupportsEpilogue reports whether the fixed-function API can fuse the
// requested epilogue. Only identity and bias+ReLU exist in the closed
// op set — this inflexibility is Bolt's motivation for template
// customization (paper §2.1, §3.1).
func (l *Library) SupportsEpilogue(e cutlass.Epilogue) bool {
	switch e.Act {
	case cutlass.ActIdentity, cutlass.ActReLU:
		return true
	default:
		return false
	}
}

// SupportsPersistentFusion is always false: fixed-function libraries
// cannot fuse back-to-back GEMMs/Convs.
func (l *Library) SupportsPersistentFusion() bool { return false }

// Describe returns a short description of the kernel the heuristic
// picks for a problem, for diagnostics.
func (l *Library) Describe(m, n, k int) string {
	cfg := l.selectConfig(m, n, k)
	return fmt.Sprintf("%s for (%d,%d,%d)", cfg.Name(), m, n, k)
}
