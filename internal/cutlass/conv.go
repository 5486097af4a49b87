package cutlass

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// ConvShape describes a 2-D convolution problem in NHWC layout (the
// only layout CUTLASS supports for convolutions — paper §3.2.3).
// Weights are OHWI: (OC, KH, KW, IC).
type ConvShape struct {
	N, H, W, IC, OC  int
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
}

// Conv3x3 builds the common square-kernel shape used throughout the
// paper's tables.
func Conv3x3(n, h, w, ic, oc, stride, pad int) ConvShape {
	return ConvShape{N: n, H: h, W: w, IC: ic, OC: oc, KH: 3, KW: 3,
		StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
}

// Conv1x1 builds a pointwise convolution (stride 1, no padding) — the
// shape persistent fusion requires for trailing layers.
func Conv1x1(n, h, w, ic, oc int) ConvShape {
	return ConvShape{N: n, H: h, W: w, IC: ic, OC: oc, KH: 1, KW: 1,
		StrideH: 1, StrideW: 1}
}

// OutH returns the output height.
func (s ConvShape) OutH() int { return (s.H+2*s.PadH-s.KH)/s.StrideH + 1 }

// OutW returns the output width.
func (s ConvShape) OutW() int { return (s.W+2*s.PadW-s.KW)/s.StrideW + 1 }

// ImplicitGemm returns the (M, N, K) of the implicit-GEMM formulation:
// M = N·OH·OW (one row per output pixel), N = OC, K = IC·KH·KW.
func (s ConvShape) ImplicitGemm() (m, n, k int) {
	return s.N * s.OutH() * s.OutW(), s.OC, s.IC * s.KH * s.KW
}

// FLOPs returns the multiply-add work (2 flops per MAC).
func (s ConvShape) FLOPs() float64 {
	m, n, k := s.ImplicitGemm()
	return 2 * float64(m) * float64(n) * float64(k)
}

// String renders like the paper's workload tables.
func (s ConvShape) String() string {
	return fmt.Sprintf("conv %dx%dx%dx%d k%dx%d s%d ic%d oc%d",
		s.N, s.H, s.W, s.IC, s.KH, s.KW, s.StrideH, s.IC, s.OC)
}

// Validate sanity-checks the problem geometry.
func (s ConvShape) Validate() error {
	if s.N <= 0 || s.H <= 0 || s.W <= 0 || s.IC <= 0 || s.OC <= 0 {
		return fmt.Errorf("cutlass: non-positive conv dims %+v", s)
	}
	if s.KH <= 0 || s.KW <= 0 || s.StrideH <= 0 || s.StrideW <= 0 {
		return fmt.Errorf("cutlass: non-positive kernel/stride %+v", s)
	}
	if s.PadH < 0 || s.PadW < 0 {
		return fmt.Errorf("cutlass: negative padding %+v", s)
	}
	if s.OutH() <= 0 || s.OutW() <= 0 {
		return fmt.Errorf("cutlass: empty output for %+v", s)
	}
	return nil
}

// Conv2D is an instantiated implicit-GEMM forward-convolution kernel.
// Its first launch packs the OHWI weight tensor into an HWIO filter
// that the kernel keeps; later launches with the same tensor reuse it,
// and a launch with another tensor packs that one. A weight tensor is
// therefore read-only from its first launch on, as every relay
// constant already is.
type Conv2D struct {
	Shape    ConvShape
	Config   GemmConfig
	Epilogue Epilogue

	filter atomic.Pointer[convFilter]
}

// convFilter is weight tensor w packed to HWIO: K = (kh, kw, ic) rows
// of OC contiguous floats, the layout of the GEMM's B.
type convFilter struct {
	w    *tensor.Tensor
	hwio []float32
}

// NewConv2D validates and instantiates the template.
func NewConv2D(shape ConvShape, cfg GemmConfig, epi Epilogue, d *gpu.Device) (*Conv2D, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(d); err != nil {
		return nil, err
	}
	return &Conv2D{Shape: shape, Config: cfg, Epilogue: epi}, nil
}

// Name returns the kernel name in CUTLASS conv convention.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("%s_fprop_%s", c.Config.Name(), c.Epilogue.String())
}

// SupportsProblem reports whether the operand alignments divide the
// channel counts (NHWC innermost dimension is C; paper §3.2.3: a
// 3-input-channel first layer forces alignment 1).
func (c *Conv2D) SupportsProblem() bool {
	s := c.Shape
	// Activation & weight contiguous dim: IC; output contiguous dim: OC.
	return s.IC%c.Config.AlignA == 0 && s.IC%c.Config.AlignB == 0 && s.OC%c.Config.AlignC == 0
}

// Run executes the convolution functionally. x is NHWC (N,H,W,IC);
// w is OHWI (OC,KH,KW,IC); bias is a length-OC vector or nil. The
// output is NHWC (N,OH,OW,OC), quantized to the epilogue out dtype.
func (c *Conv2D) Run(x, w, bias *tensor.Tensor) *tensor.Tensor {
	return c.RunInto(nil, x, w, bias)
}

// RunInto executes like Run but writes into dst, an NHWC
// (N,OH,OW,OC) tensor of the epilogue's output dtype that must not
// alias any operand. A nil dst allocates. It returns the destination.
func (c *Conv2D) RunInto(dst *tensor.Tensor, x, w, bias *tensor.Tensor) *tensor.Tensor {
	s := c.Shape
	xs, ws := x.Shape(), w.Shape()
	if len(xs) != 4 || xs[0] != s.N || xs[1] != s.H || xs[2] != s.W || xs[3] != s.IC {
		panic(fmt.Sprintf("cutlass: conv input shape %v != NHWC of %+v", xs, s))
	}
	if len(ws) != 4 || ws[0] != s.OC || ws[1] != s.KH || ws[2] != s.KW || ws[3] != s.IC {
		panic(fmt.Sprintf("cutlass: conv weight shape %v != OHWI of %+v", ws, s))
	}
	if !c.SupportsProblem() {
		panic(fmt.Sprintf("cutlass: conv %+v violates alignment %d/%d/%d",
			s, c.Config.AlignA, c.Config.AlignB, c.Config.AlignC))
	}
	var bd []float32
	if bias != nil {
		if bias.NumElements() != s.OC {
			panic(fmt.Sprintf("cutlass: bias length %d != OC %d", bias.NumElements(), s.OC))
		}
		bd = bias.Data()
	}
	oh, ow := s.OutH(), s.OutW()
	out := dst
	if out == nil {
		out = tensor.NewWithLayout(c.Epilogue.OutDType, tensor.LayoutNHWC, s.N, oh, ow, s.OC)
	} else if out.NumElements() != s.N*oh*ow*s.OC {
		panic(fmt.Sprintf("cutlass: conv destination has %d elements, want NHWC (%d,%d,%d,%d)",
			out.NumElements(), s.N, oh, ow, s.OC))
	}
	r := convRunPool.Get().(*convRun)
	*r = convRun{s: s, epi: c.Epilogue, xd: x.Data(), wd: c.packed(w), bd: bd, od: out.Data()}
	m, n, k := s.ImplicitGemm()
	parallelRows(r, tiles(m, tileRows)*tiles(n, tileCols), m*n*k)
	*r = convRun{} // a pooled run must not pin the operands
	convRunPool.Put(r)
	// INT8 outputs are quantized dynamically with a serial max-abs scan
	// (see Gemm.run) so the result is partitioning-independent.
	if c.Epilogue.OutDType == tensor.INT8 {
		out.CalibrateScale()
	}
	return out
}

// packed returns w's HWIO filter, packing it unless w is the tensor
// the kernel packed last. Concurrent first launches may each pack; the
// panels hold the same bytes, and the last stored is kept.
func (c *Conv2D) packed(w *tensor.Tensor) []float32 {
	if f := c.filter.Load(); f != nil && f.w == w {
		return f.hwio
	}
	s := c.Shape
	k := s.KH * s.KW * s.IC
	wd := w.Data()
	hwio := make([]float32, len(wd))
	for kk := range k { // row by row: strided writes measured 4x slower
		row := hwio[kk*s.OC:][:s.OC]
		for oc := range row {
			row[oc] = wd[oc*k+kk]
		}
	}
	c.filter.Store(&convFilter{w: w, hwio: hwio})
	return hwio
}

// convRun is one RunInto call's operands and the rowKernel that
// parallelRows partitions over the output tiles: tileRows output pixels
// (of the flattened N·OH·OW) by tileCols output channels, numbered
// panel by panel as the GEMM's are. It is pooled so a call allocates
// nothing, split or not.
type convRun struct {
	s              ConvShape
	epi            Epilogue
	xd, wd, bd, od []float32 // wd is the HWIO filter
}

var convRunPool = sync.Pool{New: func() any { return new(convRun) }}

// tapRange returns the taps [k0, k1) of a k-wide kernel extent whose
// input coordinate base+tap falls inside [0, lim). Taps outside are
// skipped rather than multiplied by zero, so a non-finite weight over
// the padding never reaches a sum.
func tapRange(base, k, lim int) (k0, k1 int) {
	k0 = max(0, -base)
	k1 = max(k0, min(k, lim-base))
	return k0, k1
}

// run computes tiles [u0, u1).
func (r *convRun) run(u0, u1 int) {
	var acc [tileRows * tileCols]float32
	m, n, _ := r.s.ImplicitGemm()
	blocks := tiles(m, tileRows)
	for u := u0; u < u1; u++ {
		p0, j0 := u%blocks*tileRows, u/blocks*tileCols
		r.tile(&acc, p0, min(p0+tileRows, m), j0, min(j0+tileCols, n))
	}
}

// tile computes output pixels [p0, p1) x channels [j0, j1) as the
// GEMM's tile does: a row of the HWIO filter scaled by one input value
// adds to a pixel's row of output channels. For a fixed kh, a pixel's
// in-range kw taps x IC are one contiguous run of both its NHWC input
// row and the filter's K, so the tile walks K one kh row at a time in
// groups of four, and each pixel takes the part of a group that falls
// in its run: the whole group through axpy4, a partial one term by
// term through axpy1, taps over the padding not at all. Every output
// sees its in-range products in (kh, kw, ic) order with one float32
// round per step, so the bytes match the direct loop and depend on
// neither the tiling nor the partition. Zero activations are
// multiplied in like any other, so an in-range Inf or NaN weight
// reaches its outputs exactly as in the direct loop.
func (r *convRun) tile(acc *[tileRows * tileCols]float32, p0, p1, j0, j1 int) {
	s := r.s
	oh, ow, w := s.OutH(), s.OutW(), j1-j0
	rowK, rowX := s.KW*s.IC, s.W*s.IC // one kh's share of K; one input row
	c := acc[:(p1-p0)*w]
	clear(c)
	// Per pixel: the input row under kernel row 0, the NHWC offset of
	// input (ih, iw), which may lie in the padding (only in-range taps
	// are read from it), and its in-range part [lo, hi) of a kh row of K.
	var ih, xo, lo, hi [tileRows]int
	for i := range p1 - p0 {
		p := p0 + i
		row := p / ow
		ih[i] = row%oh*s.StrideH - s.PadH
		iw := p%ow*s.StrideW - s.PadW
		kw0, kw1 := tapRange(iw, s.KW, s.W)
		lo[i], hi[i] = kw0*s.IC, kw1*s.IC
		xo[i] = ((row/oh*s.H+ih[i])*s.W + iw) * s.IC
	}
	for kh := range s.KH {
		for g := 0; g < rowK; g += 4 {
			k := kh*rowK + g
			var b [4][]float32
			for t := range min(4, rowK-g) {
				b[t] = r.wd[(k+t)*s.OC+j0:][:w]
			}
			for i := range p1 - p0 {
				if h := ih[i] + kh; h < 0 || h >= s.H {
					continue
				}
				ci := c[i*w:][:w]
				xk := xo[i] + kh*rowX
				if lo[i] <= g && g+4 <= hi[i] {
					x := r.xd[xk+g:][:4]
					axpy4(ci, b[0], b[1], b[2], b[3], x[0], x[1], x[2], x[3])
					continue
				}
				for t := max(g, lo[i]); t < min(g+4, hi[i]); t++ {
					axpy1(ci, b[t-g], r.xd[xk+t])
				}
			}
		}
	}
	var bias []float32
	if r.bd != nil {
		bias = r.bd[j0:j1]
	}
	for i := range p1 - p0 {
		r.epi.storeRow(r.od[(p0+i)*s.OC+j0:][:w], c[i*w:][:w], bias)
	}
}

// Desc lowers the convolution to a device kernel descriptor using the
// implicit-GEMM dimensions. Activation traffic counts the true NHWC
// footprint (halo overlap between filter taps hits L2/SMEM, not DRAM).
func (c *Conv2D) Desc(d *gpu.Device) gpu.KernelDesc {
	s := c.Shape
	m, n, k := s.ImplicitGemm()
	cfg := c.Config
	tilesM, tilesN := cfg.tileCounts(m, n)
	esize := cfg.DType.Size()

	g := 1 << cfg.SwizzleLog
	if g > tilesM {
		g = tilesM
	}
	if g > tilesN {
		g = tilesN
	}
	// Activation footprint re-read once per column-tile group; weight
	// footprint once per row-tile group — unless the operand stays
	// L2-resident, in which case DRAM sees it once.
	actB := L2Discounted(d, float64(s.N*s.H*s.W*s.IC)*float64(esize), (tilesN+g-1)/g)
	wB := L2Discounted(d, float64(s.OC*s.KH*s.KW*s.IC)*float64(esize), (tilesM+g-1)/g)
	loadB := actB + wB
	if bias := c.Epilogue; bias.Beta != 0 && bias.BiasVector {
		loadB += float64(s.OC * esize)
	}
	storeB := float64(m) * float64(n) * float64(c.Epilogue.OutDType.Size())

	flops := 2*float64(m)*float64(n)*float64(k) + c.Epilogue.flopsPerElement()*float64(m)*float64(n)

	align := cfg.AlignA
	if cfg.AlignB < align {
		align = cfg.AlignB
	}
	if cfg.AlignC < align {
		align = cfg.AlignC
	}
	// Implicit-GEMM fprop pays extra predication and pointer math in
	// its main loop versus a plain GEMM.
	issue := cfg.issueEff(k) * 0.72
	return gpu.KernelDesc{
		Name:            c.Name(),
		GridBlocks:      tilesM * tilesN,
		ThreadsPerBlock: cfg.Threads(),
		RegsPerThread:   cfg.RegsPerThread() + 16, // im2col iterator state
		SharedMemBytes:  cfg.SharedMemBytes(),
		FLOPs:           flops,
		GlobalLoadB:     loadB,
		GlobalStoreB:    storeB,
		OpClass:         cfg.Op,
		DType:           cfg.DType,
		AlignmentElems:  align,
		IssueEff:        issue,
		MemEff:          0.9,
	}
}

// Time prices one launch on the device model.
func (c *Conv2D) Time(d *gpu.Device) float64 { return d.KernelTime(c.Desc(d)) }

// ReferenceConv2D computes the convolution directly with FP64
// accumulation, the oracle for kernel validation.
func ReferenceConv2D(s ConvShape, x, w, bias *tensor.Tensor, epi Epilogue) *tensor.Tensor {
	oh, ow := s.OutH(), s.OutW()
	out := tensor.NewWithLayout(epi.OutDType, tensor.LayoutNHWC, s.N, oh, ow, s.OC)
	xd, wd, od := x.Data(), w.Data(), out.Data()
	var bd []float32
	if bias != nil {
		bd = bias.Data()
	}
	for in := 0; in < s.N; in++ {
		for io := 0; io < oh; io++ {
			for jo := 0; jo < ow; jo++ {
				for oc := 0; oc < s.OC; oc++ {
					sum := 0.0
					for kh := 0; kh < s.KH; kh++ {
						ih := io*s.StrideH - s.PadH + kh
						if ih < 0 || ih >= s.H {
							continue
						}
						for kw := 0; kw < s.KW; kw++ {
							iw := jo*s.StrideW - s.PadW + kw
							if iw < 0 || iw >= s.W {
								continue
							}
							for ic := 0; ic < s.IC; ic++ {
								sum += float64(xd[((in*s.H+ih)*s.W+iw)*s.IC+ic]) *
									float64(wd[((oc*s.KH+kh)*s.KW+kw)*s.IC+ic])
							}
						}
					}
					var cv float32
					if bd != nil {
						cv = bd[oc]
					}
					od[((in*oh+io)*ow+jo)*s.OC+oc] = epi.apply(float32(sum), cv)
				}
			}
		}
	}
	if epi.OutDType == tensor.INT8 {
		out.CalibrateScale() // match the templated kernels' dynamic scale
	} else {
		out.Quantize()
	}
	return out
}
