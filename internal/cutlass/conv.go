package cutlass

import (
	"fmt"
	"sync"

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
// Its first launch packs the OHWI weight tensor into a panel-major
// filter that the kernel keeps (see panelCache): a weight tensor is
// read-only from its first launch on.
type Conv2D struct {
	Shape    ConvShape
	Config   GemmConfig
	Epilogue Epilogue

	// FilterScale, when set, holds one factor per output channel (OC
	// of them) that the filter pack multiplies into the weights: the
	// kernel convolves with round(w·FilterScale[oc]) in w's dtype, an
	// INT8 filter recalibrated to the scaled range as
	// tensor.CalibrateScale would. This is how a folded BatchNorm
	// reaches the kernel; w itself is never written.
	FilterScale []float32

	filter panelCache
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

// RunInto executes the convolution functionally. x is NHWC
// (N,H,W,IC); w is OHWI (OC,KH,KW,IC); bias is a length-OC vector when
// Epilogue.BiasVector is set, nil otherwise. The output is NHWC
// (N,OH,OW,OC), quantized to the epilogue out dtype, written into dst,
// which must not alias any operand. A nil dst allocates. It returns the
// destination.
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
	if c.FilterScale != nil && len(c.FilterScale) != s.OC {
		panic(fmt.Sprintf("cutlass: filter scale length %d != OC %d", len(c.FilterScale), s.OC))
	}
	c.Epilogue.checkBias(bias, s.OC)
	var bd []float32
	if bias != nil {
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
	m, n, k := s.ImplicitGemm()
	r := convRunPool.Get().(*convRun)
	*r = convRun{s: s, epi: c.Epilogue, xd: x.Data(), wd: c.filter.packed(w, c.FilterScale, k, n, 1, k), bd: bd, od: out.Data()}
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

// convRun is one RunInto call's operands and the rowKernel that
// parallelRows partitions over the output tiles: tileRows output pixels
// (of the flattened N·OH·OW) by tileCols output channels, numbered
// column tile by column tile as the GEMM's are. It is pooled so a call
// allocates nothing, split or not.
type convRun struct {
	s              ConvShape
	epi            Epilogue
	xd, wd, bd, od []float32 // wd is the panel-major filter
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

// tile computes output pixels [p0, p1) x channels [j0, j1), whole
// filter panels but the last, with microKernel: four pixels (a quad) by
// one panel at a time. For a fixed kh, a pixel's in-range kw taps x IC
// are one contiguous run [lo, hi) of both its NHWC input row and the
// filter's K. A quad's runs cut the kh row into at most seven segments,
// taken in ascending order, and each is one micro-kernel call per
// panel. So no tap over the padding is multiplied, and every output
// sees its in-range products in (kh, kw, ic) order with one float32
// round per step: the bytes match the direct loop and depend on neither
// the tiling nor the partition. Zero activations are multiplied in, by
// the micro-kernel's zero rule, so an in-range Inf or NaN weight
// reaches its outputs exactly as in the direct loop. The zero-padded
// channels of a last panel are accumulated and never stored. Panels are
// the middle loop so that a kh row of a panel, read for the tile's
// first quad, is still in L1 for its second.
func (r *convRun) tile(acc *[tileRows * tileCols]float32, p0, p1, j0, j1 int) {
	s := r.s
	oh, ow := s.OutH(), s.OutW()
	rowK, k := s.KW*s.IC, s.KH*s.KW*s.IC
	q0, q1 := j0/panelCols, tiles(j1, panelCols) // the tile's panels
	// Pixel i's accumulators are row i of acc, panel q at
	// (q-q0)·panelCols.
	var px [tileRows]convPixel
	for i := range p1 - p0 {
		p := p0 + i
		row := p / ow
		ih := row%oh*s.StrideH - s.PadH
		iw := p%ow*s.StrideW - s.PadW
		kw0, kw1 := tapRange(iw, s.KW, s.W)
		px[i] = convPixel{ih: ih, xo: ((row/oh*s.H+ih)*s.W + iw) * s.IC, lo: kw0 * s.IC, hi: kw1 * s.IC}
		clear(acc[i*tileCols:][:(q1-q0)*panelCols])
	}
	var junk [panelCols]float32
	var segs [tileRows / 4][7]convSeg
	for kh := range s.KH {
		var nseg [tileRows / 4]int
		for i0 := 0; i0 < p1-p0; i0 += 4 {
			nseg[i0/4] = r.segments(&segs[i0/4], px[i0:min(i0+4, p1-p0)], kh)
		}
		for q := q0; q < q1; q++ {
			b := r.wd[(q*k+kh*rowK)*panelCols:][:rowK*panelCols]
			for qd, n := range nseg {
				for si := range n {
					sg := &segs[qd][si]
					var c [4]*[panelCols]float32
					for l := range c {
						c[l] = &junk
						if sg.on[l] {
							c[l] = (*[panelCols]float32)(acc[(4*qd+l)*tileCols+(q-q0)*panelCols:])
						}
					}
					microKernel(&c, &sg.x, b[sg.t0*panelCols:sg.t1*panelCols])
				}
			}
		}
	}
	w := j1 - j0
	var bias []float32
	if r.bd != nil {
		bias = r.bd[j0:j1]
	}
	for i := range p1 - p0 {
		r.epi.storeRow(r.od[(p0+i)*s.OC+j0:][:w], acc[i*tileCols:][:w], bias)
	}
}

// convPixel is where a tile's output pixel reads its input: the input
// row under kernel row 0, the NHWC offset of input (ih, iw), which may
// lie in the padding (only in-range taps are read from it), and its
// in-range run [lo, hi) of a kh row of K.
type convPixel struct{ ih, xo, lo, hi int }

// convSeg is one micro-kernel call of a quad: taps [t0, t1) of a kh
// row of K, the lanes whose run covers them, and each lane's input. A
// lane that is off (its input row is padding, its run misses the
// segment, or the tile has no pixel for it) reads an active lane's
// input and adds into a junk row.
type convSeg struct {
	t0, t1 int
	on     [4]bool
	x      [4][]float32
}

// segments cuts kernel row kh into the segments of a quad's pixels
// (one to four) and returns how many there are.
func (r *convRun) segments(segs *[7]convSeg, quad []convPixel, kh int) int {
	s := &r.s
	xk := kh * s.W * s.IC
	// The lanes' runs, empty for a lane whose input row is padding.
	var run [4][2]int
	shared := len(quad) == 4 // four lanes with one non-empty run
	for l, p := range quad {
		if h := p.ih + kh; h < 0 || h >= s.H || p.lo == p.hi {
			shared = false
			continue
		}
		run[l] = [2]int{p.lo, p.hi}
		shared = shared && run[l] == run[0]
	}
	if shared { // an interior quad: its run is its one segment
		sg := &segs[0]
		sg.t0, sg.t1, sg.on = run[0][0], run[0][1], [4]bool{true, true, true, true}
		for l, p := range quad {
			sg.x[l] = r.xd[p.xo+xk+sg.t0 : p.xo+xk+sg.t1]
		}
		return 1
	}
	// The runs' ends, in ascending order without repeats, are the
	// segment boundaries.
	var cuts [8]int
	nc := 0
	for _, rn := range run {
		if rn[0] < rn[1] {
			nc = addCut(&cuts, nc, rn[0])
			nc = addCut(&cuts, nc, rn[1])
		}
	}
	ns := 0
	for g := 0; g+1 < nc; g++ {
		sg := &segs[ns]
		sg.t0, sg.t1, sg.on = cuts[g], cuts[g+1], [4]bool{}
		f := -1
		for l, p := range quad {
			if run[l][0] <= sg.t0 && sg.t1 <= run[l][1] {
				sg.on[l], sg.x[l] = true, r.xd[p.xo+xk+sg.t0:p.xo+xk+sg.t1]
				if f < 0 {
					f = l
				}
			}
		}
		if f < 0 { // a gap between the lanes' runs
			continue
		}
		for l := range sg.x {
			if !sg.on[l] {
				sg.x[l] = sg.x[f]
			}
		}
		ns++
	}
	return ns
}

// addCut inserts v into cuts[:n], kept ascending and without repeats,
// and returns the new length.
func addCut(cuts *[8]int, n, v int) int {
	i := n
	for i > 0 && cuts[i-1] > v {
		i--
	}
	if i > 0 && cuts[i-1] == v {
		return n
	}
	copy(cuts[i+1:n+1], cuts[i:n])
	cuts[i] = v
	return n + 1
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
	if c.Epilogue.BiasVector {
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
	if epi.BiasVector {
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
