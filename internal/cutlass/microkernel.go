package cutlass

import (
	"sync/atomic"

	"bolt/internal/fp16"
	"bolt/internal/tensor"
)

// The inner step of both kernels. microKernel (microkernel_amd64.go,
// microkernel_noasm.go) adds a run of n taps to four output rows × one
// weight panel of panelCols output columns: for t in [0, n), lane l
// and column j,
//
//	c[l][j] = c[l][j] + x[l][t]*b[t*panelCols+j]
//
// with one float32 round per multiply and one per add, the accumulator
// the add's first source. A GEMM's rows are rows of A and its taps k; a
// convolution's rows are output pixels and its taps (kh, kw, ic). The 4
// × panelCols accumulators stay in registers across the run and one
// weight row serves all four lanes, so a tap costs one weight load and
// four broadcasts. Lanes are different outputs, so no output's
// arithmetic depends on the body that runs it. The rows of c are loaded
// before the first tap and stored after the last, so lanes may share a
// row, which then holds one of their results; a tile points lanes it
// has no output row for at one junk row.
//
// The zero rule: every product of a tap the kernel runs is formed, and
// a zero activation is multiplied in like any other value. With finite
// weights that gives the bits of skipping it (a sum that starts at +0
// never becomes -0 under round-to-nearest, and x + ±0 = x otherwise);
// an Inf or NaN weight under a zero activation gives NaN. What a kernel
// does not run is a convolution's taps over the padding.
const panelCols = 16

// microKernelGo is the statement above in Go: the body every
// architecture without an assembly routine runs, and the oracle the
// assembly is tested against. The float32 conversion keeps a compiler
// that fuses x*y + z (arm64, GOAMD64=v3) from skipping the product's
// round. Every x[l] must hold at least len(b)/panelCols elements.
func microKernelGo(c *[4]*[panelCols]float32, x *[4][]float32, b []float32) {
	n := len(b) / panelCols
	acc := [4][panelCols]float32{*c[0], *c[1], *c[2], *c[3]}
	for l := range acc {
		xl := x[l][:n]
		for j := range acc[l] {
			v := acc[l][j]
			for t, xv := range xl {
				v += float32(xv * b[t*panelCols+j])
			}
			acc[l][j] = v
		}
	}
	for l := range acc {
		*c[l] = acc[l]
	}
}

// panelCache holds a kernel's weights packed panel-major for
// microKernel. A kernel packs on its first launch, not at compile time,
// and keeps the panels: later launches with the same weight tensor
// reuse them and a launch with another tensor packs that one, so a
// weight tensor is read-only from its kernel's first launch on. A
// compiled module's weights are relay constants, which never change
// (codegen refuses a computed weight). Each kernel keeps its own
// panels: kernels compiled from one weight tensor, such as the batch
// variants relay.Rebatch makes, each hold a packed copy. A convolution
// with a FilterScale applies it here, so its panels are the only
// scaled copy of the filter there is.
type panelCache struct{ last atomic.Pointer[packedPanels] }

// packedPanels is weight tensor w as a K×N matrix packed panel-major:
// ⌈N/panelCols⌉ panels, each K rows of panelCols contiguous columns,
// the last panel zero-padded to panelCols. Panel q, row kk starts at
// (q·K + kk)·panelCols. Element (kk, j) of the matrix is w's element
// kk·rowStride + j·colStride, times scale[j] when scale is set. While
// it packs, it is the rowKernel that parallelRows partitions over the
// panels.
type packedPanels struct {
	w                          *tensor.Tensor
	scale                      []float32
	step                       float32 // the INT8 grid of the scaled elements
	panels                     []float32
	k, n, rowStride, colStride int
}

// packed returns w's panels, packing them unless w is the tensor packed
// last. A filter (rowStride 1) may carry a per-column scale, which the
// pack multiplies into each element as packScaled says. A pack is split
// over the worker pool by the kernels' own rule, an element counting as
// a multiply-accumulate. Packing a 768×3072 B into fresh pages measured
// 10-12 ms on one or two cores of an Intel Xeon (two-core VM), most of
// it faulting the pages in. Concurrent first launches may each pack;
// the panels hold the same bytes, and the last stored is kept.
func (pc *panelCache) packed(w *tensor.Tensor, scale []float32, k, n, rowStride, colStride int) []float32 {
	if p := pc.last.Load(); p != nil && p.w == w {
		return p.panels
	}
	p := &packedPanels{w: w, scale: scale, panels: make([]float32, tiles(n, panelCols)*k*panelCols),
		k: k, n: n, rowStride: rowStride, colStride: colStride}
	if scale != nil && w.DType() == tensor.INT8 {
		// One serial max-abs pass over the products, CalibrateScale's
		// scan, so the grid does not depend on the partition.
		var m float32
		wd := w.Data()
		for j, s := range scale {
			for _, v := range wd[j*colStride:][:k] {
				m = tensor.AbsMax(m, float32(v*s))
			}
		}
		p.step = tensor.INT8Step(m)
	}
	parallelRows(p, tiles(n, panelCols), k*n)
	pc.last.Store(p)
	return p.panels
}

// run packs panels [q0, q1) in the order that reads w contiguously. A
// filter (rowStride 1) goes panel by panel, a panel's rows in turn:
// strided writes measured 4x slower. A GEMM's B (colStride 1) goes row
// by row of B, each row cut across the panels: packing a 768×3072 B
// into fresh pages measured 11-12 ms so and 14-15 ms panel by panel
// (medians of 21 alternating runs, one and two cores). A scaled filter
// goes panel by panel even when its K is 1 and both strides are.
func (p *packedPanels) run(q0, q1 int) {
	wd := p.w.Data()
	if p.colStride == 1 && p.scale == nil {
		for kk := range p.k {
			src := wd[kk*p.rowStride:]
			for q := q0; q < q1; q++ {
				j0 := q * panelCols
				copy(p.panels[(q*p.k+kk)*panelCols:][:min(panelCols, p.n-j0)], src[j0:])
			}
		}
		return
	}
	for q := q0; q < q1; q++ {
		j0 := q * panelCols
		dst, w := p.panels[j0*p.k:][:p.k*panelCols], min(panelCols, p.n-j0)
		for kk := range p.k {
			row, src := dst[kk*panelCols:][:w], wd[kk*p.rowStride+j0*p.colStride:]
			if p.scale != nil {
				p.packScaled(row, src, p.scale[j0:][:w])
				continue
			}
			for j := range row {
				row[j] = src[j*p.colStride]
			}
		}
	}
}

// packScaled writes one panel row of a scaled filter: each element is
// w·scale formed in float32 and rounded once to w's dtype (INT8 onto
// the grid packed picked), while the row is in cache. The panels hold
// the bytes of packing the scaled tensor the same rounding would
// materialize.
func (p *packedPanels) packScaled(row, src, scale []float32) {
	for j, s := range scale {
		row[j] = src[j*p.colStride] * s
	}
	switch p.w.DType() {
	case tensor.FP16:
		fp16.Quantize(row)
	case tensor.INT8:
		tensor.QuantizeINT8(row, p.step)
	}
}
