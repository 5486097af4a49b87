package cutlass

import (
	"fmt"
	"runtime"
	"sync"

	"bolt/internal/gpu"
	"bolt/internal/tensor"
)

// Gemm is an instantiated GEMM kernel template: a tile configuration
// plus a fused epilogue. It computes D = epilogue(A·B, bias) where A is
// M×K and B is K×N, both row-major. Its first launch packs B
// panel-major and the kernel keeps the panels (see panelCache): B is
// read-only from its first launch on, and a caller that launches one
// GEMM more than once keeps its Gemm so that it packs once.
type Gemm struct {
	Config   GemmConfig
	Epilogue Epilogue

	b panelCache
}

// NewGemm instantiates the template after validating the configuration.
func NewGemm(cfg GemmConfig, epi Epilogue, d *gpu.Device) (*Gemm, error) {
	if err := cfg.Validate(d); err != nil {
		return nil, err
	}
	return &Gemm{Config: cfg, Epilogue: epi}, nil
}

// Name returns the full kernel name including the epilogue.
func (g *Gemm) Name() string {
	return g.Config.Name() + "_" + g.Epilogue.String()
}

// RunInto executes the kernel functionally. A is M×K, B is K×N. bias
// is the epilogue's source operand: a length-N vector when
// Epilogue.BiasVector is set, nil otherwise. The result is quantized
// to the epilogue's output dtype. Accumulation is FP32, as on tensor
// cores. It writes the result into dst, which must be an M×N tensor of
// the epilogue's output dtype and must not alias any operand (the
// planner guarantees this for arena destinations). A nil dst
// allocates. It returns the destination.
func (g *Gemm) RunInto(dst *tensor.Tensor, a, b, bias *tensor.Tensor) *tensor.Tensor {
	as, bs := a.Shape(), b.Shape()
	if len(as) != 2 || len(bs) != 2 {
		panic(fmt.Sprintf("cutlass: gemm operands must be 2-D, got %v x %v", as, bs))
	}
	m, k := as[0], as[1]
	kb, n := bs[0], bs[1]
	if k != kb {
		panic(fmt.Sprintf("cutlass: gemm K mismatch %d vs %d", k, kb))
	}
	if !g.Config.SupportsProblem(m, n, k) {
		panic(fmt.Sprintf("cutlass: problem (%d,%d,%d) violates alignment %d/%d/%d",
			m, n, k, g.Config.AlignA, g.Config.AlignB, g.Config.AlignC))
	}
	g.Epilogue.checkBias(bias, n)
	var bd []float32
	if bias != nil {
		bd = bias.Data()
	}

	if dst == nil {
		dst = tensor.New(g.Epilogue.OutDType, m, n)
	} else if dst.NumElements() != m*n {
		panic(fmt.Sprintf("cutlass: gemm destination has %d elements, want %dx%d", dst.NumElements(), m, n))
	}
	r := gemmRunPool.Get().(*gemmRun)
	*r = gemmRun{epi: g.Epilogue, m: m, n: n, k: k, ad: a.Data(), bd: g.b.packed(b, nil, k, n, n, 1), biasd: bd, od: dst.Data()}
	parallelRows(r, tiles(m, tileRows)*tiles(n, tileCols), m*n*k/gemmMACsPerConvMAC)
	*r = gemmRun{} // a pooled run must not pin the operands
	gemmRunPool.Put(r)

	// INT8 outputs are quantized dynamically: a serial max-abs scan
	// picks the per-tensor symmetric scale (maxAbs/127), then the whole
	// output snaps onto that grid. Doing it as a post-pass keeps the
	// result independent of the parallelRows partitioning.
	if g.Epilogue.OutDType == tensor.INT8 {
		dst.CalibrateScale()
	}
	return dst
}

// A GEMM is cut into tiles of up to tileRows output rows by tileCols
// output columns, tileCols/panelCols panels of B, the units
// parallelRows partitions (a convolution's rows are output pixels and
// its columns output channels). A tile's accumulators (8 KB) live on
// its worker's stack. A GEMM tile takes k in blocks of kBlock: a block
// of a panel (8 KB) stays in L1 while the tile's quads pass over it, and
// the tile's rows of A (4 KB) while its panels do, so B is read once
// per tile and not once per quad.
const (
	tileRows = 8
	tileCols = 256
	kBlock   = 128
)

// gemmMACsPerConvMAC states a GEMM's work in the convolution MACs that
// splitMACs counts. It is not a speed ratio: both run one micro-kernel.
// It keeps an M = 1 call inline. Split, one is faster alone
// (1x1000x1280 measured 201 us split against 350 inline, 1x1000x512 78
// against 139; medians of 12 alternating pairs on an Intel Xeon,
// two-core VM, split faster in all 12), but a split parks its caller,
// which resumes on the other P, so the tile's pooled state is put back
// to another P's sync.Pool and the pool grows new chain links: with the
// zoo heads split, run_cnn read 14.5 allocations per operation against
// 13 (+11 %, 10 alternating pairs) for 2.8 % more operations per
// second. At 8 a GEMM splits from 2^21 MACs: a classifier layer runs
// inline and a BERT FFN layer splits.
const gemmMACsPerConvMAC = 8

// tiles returns how many tiles of the given extent cover n.
func tiles(n, tile int) int { return (n + tile - 1) / tile }

// gemmRun is one Gemm call's operands and the rowKernel that
// parallelRows partitions over the output tiles. It is pooled so a
// call allocates nothing, split or not.
type gemmRun struct {
	epi               Epilogue
	m, n, k           int
	ad, bd, biasd, od []float32
}

var gemmRunPool = sync.Pool{New: func() any { return new(gemmRun) }}

// run computes tiles [u0, u1). Tiles are numbered column tile by
// column tile, so a contiguous range shares its B panels between row
// blocks and two ranges read disjoint parts of B.
func (r *gemmRun) run(u0, u1 int) {
	var acc [tileRows * tileCols]float32
	blocks := tiles(r.m, tileRows)
	for u := u0; u < u1; u++ {
		i0, j0 := u%blocks*tileRows, u/blocks*tileCols
		r.tile(&acc, i0, min(i0+tileRows, r.m), j0, min(j0+tileCols, r.n))
	}
}

// tile computes output rows [i0, i1) x columns [j0, j1), whole panels
// of B but the last, with microKernel: four rows (a quad) by one panel
// at a time, k in blocks of kBlock. A quad's spare lanes read its first
// row of A and add into a junk row. Every output sees its products in
// ascending k with one float32 round per multiply and per add, so the
// bytes depend on neither the tiling nor the partition, and zero
// activations are multiplied in (the micro-kernel's zero rule). The
// zero-padded columns of a last panel are accumulated and never stored.
func (r *gemmRun) tile(acc *[tileRows * tileCols]float32, i0, i1, j0, j1 int) {
	n, k, rows := r.n, r.k, i1-i0
	q0, q1 := j0/panelCols, tiles(j1, panelCols) // the tile's panels
	// Row i's accumulators are row i of acc, panel q at (q-q0)·panelCols.
	for i := range rows {
		clear(acc[i*tileCols:][:(q1-q0)*panelCols])
	}
	var junk [panelCols]float32
	for k0 := 0; k0 < k; k0 += kBlock {
		k1 := min(k0+kBlock, k)
		for q := q0; q < q1; q++ {
			b := r.bd[(q*k+k0)*panelCols : (q*k+k1)*panelCols]
			for l0 := 0; l0 < rows; l0 += 4 {
				var c [4]*[panelCols]float32
				var x [4][]float32
				for l := range c {
					c[l], x[l] = &junk, r.ad[(i0+l0)*k+k0:][:k1-k0]
					if l0+l < rows {
						c[l] = (*[panelCols]float32)(acc[(l0+l)*tileCols+(q-q0)*panelCols:])
						x[l] = r.ad[(i0+l0+l)*k+k0:][:k1-k0]
					}
				}
				microKernel(&c, &x, b)
			}
		}
	}
	w := j1 - j0
	var bias []float32
	if r.biasd != nil {
		bias = r.biasd[j0:j1]
	}
	for i := range rows {
		r.epi.storeRow(r.od[(i0+i)*n+j0:][:w], acc[i*tileCols:][:w], bias)
	}
}

// rowKernel is a kernel call whose output units (GEMM or convolution
// tiles) are independent: run computes units [i0, i1), and any
// partition of the range gives the same bytes.
type rowKernel interface{ run(i0, i1 int) }

// rowTask is one chunk of a parallelRows call, executed by the
// persistent worker pool.
type rowTask struct {
	k      rowKernel
	i0, i1 int
	wg     *sync.WaitGroup
}

func (t rowTask) run() {
	t.k.run(t.i0, t.i1)
	t.wg.Done()
}

var (
	rowPoolOnce sync.Once
	rowTasks    chan rowTask
	// wgPool recycles the per-call completion counter, the only state a
	// split call needs beyond its pooled kernel.
	wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}
)

// startRowPool spawns the long-lived workers. A persistent pool (vs.
// per-call goroutines) keeps a split call allocation-free, which is
// what lets a planned Module.Run stay nearly allocation-free.
func startRowPool() {
	n := runtime.GOMAXPROCS(0)
	rowTasks = make(chan rowTask, 4*n)
	for w := 0; w < n; w++ {
		go func() {
			for t := range rowTasks {
				t.run()
			}
		}()
	}
}

// splitMACs is the multiply-accumulate count from which a kernel call
// is split. Waking a parked worker and waiting for its chunk measured
// about 25 us of host time, and 2^18 MACs are some 15-70 us of
// convolution on one core, about the smallest call a two-way split
// might still shorten. A call at that edge is no longer shortened:
// servenet's 16->32 stride-2 layer (2^18.2 MACs) measured 54 us inline
// and 67 us split in two (medians of 12 alternating pairs, inline
// faster in 11). A 16x16 Dense layer (2 k MACs) stays inline for one
// multiply and compare.
const splitMACs = 1 << 18

// parallelRows runs k over [0, units), split evenly across the
// persistent worker pool when the call does at least splitMACs of work
// and there are two units and two processors to split between;
// otherwise inline. When the pool's queue is full, chunks also run
// inline rather than block. Before parking, the submitter drains the
// queue itself, so a task that re-enters parallelRows cannot deadlock
// the pool: a goroutine only ever parks waiting on chunks held by
// actively-running goroutines (the wait graph follows task ownership
// and is acyclic).
func parallelRows(k rowKernel, units, macs int) {
	workers := min(runtime.GOMAXPROCS(0), units)
	if workers < 2 || macs < splitMACs {
		k.run(0, units)
		return
	}
	rowPoolOnce.Do(startRowPool)
	chunk := (units + workers - 1) / workers
	wg := wgPool.Get().(*sync.WaitGroup)
	for i0 := 0; i0 < units; i0 += chunk {
		wg.Add(1)
		t := rowTask{k: k, i0: i0, i1: min(i0+chunk, units), wg: wg}
		select {
		case rowTasks <- t:
		default:
			t.run()
		}
	}
	// Help with whatever is queued (our own chunks included), then
	// park until stolen chunks finish.
	for {
		select {
		case t := <-rowTasks:
			t.run()
			continue
		default:
		}
		break
	}
	wg.Wait()
	wgPool.Put(wg)
}

// Desc lowers one launch of this kernel on an m×n×k problem to the
// device simulator's descriptor.
func (g *Gemm) Desc(d *gpu.Device, m, n, k int) gpu.KernelDesc {
	cfg := g.Config
	tilesM, tilesN := cfg.tileCounts(m, n)
	loadB, storeB := cfg.traffic(d, m, n, k, g.Epilogue.OutDType.Size())
	if g.Epilogue.BiasVector {
		loadB += float64(n) * float64(cfg.DType.Size())
	}
	flops := 2 * float64(m) * float64(n) * float64(k)
	flops += g.Epilogue.flopsPerElement() * float64(m) * float64(n)
	align := cfg.AlignA
	if cfg.AlignB < align {
		align = cfg.AlignB
	}
	if cfg.AlignC < align {
		align = cfg.AlignC
	}
	return gpu.KernelDesc{
		Name:            g.Name(),
		GridBlocks:      tilesM * tilesN,
		ThreadsPerBlock: cfg.Threads(),
		RegsPerThread:   cfg.RegsPerThread(),
		SharedMemBytes:  cfg.SharedMemBytes(),
		FLOPs:           flops,
		GlobalLoadB:     loadB,
		GlobalStoreB:    storeB,
		OpClass:         cfg.Op,
		DType:           cfg.DType,
		AlignmentElems:  align,
		IssueEff:        cfg.issueEff(k),
		MemEff:          0.92,
	}
}

// Time prices one launch on the device model.
func (g *Gemm) Time(d *gpu.Device, m, n, k int) float64 {
	return d.KernelTime(g.Desc(d, m, n, k))
}

// ReferenceGemm computes D = act(A·B + bias) with no tiling at FP64
// accumulation — the oracle kernels are validated against. bias is
// read only with epi.BiasVector.
func ReferenceGemm(a, b, bias *tensor.Tensor, epi Epilogue) *tensor.Tensor {
	as, bs := a.Shape(), b.Shape()
	m, k, n := as[0], as[1], bs[1]
	out := tensor.New(epi.OutDType, m, n)
	ad, bd, od := a.Data(), b.Data(), out.Data()
	var biasd []float32
	if epi.BiasVector {
		biasd = bias.Data()
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for kk := 0; kk < k; kk++ {
				sum += float64(ad[i*k+kk]) * float64(bd[kk*n+j])
			}
			var bv float32
			if biasd != nil {
				bv = biasd[j]
			}
			od[i*n+j] = epi.apply(float32(sum), bv)
		}
	}
	if epi.OutDType == tensor.INT8 {
		out.CalibrateScale() // match the templated kernels' dynamic scale
	} else {
		out.Quantize()
	}
	return out
}

// ElementwiseDesc prices the standalone BiasAdd+activation kernel that
// a non-fused pipeline must launch after the GEMM: it re-reads and
// re-writes the full activation (this is exactly the memory traffic
// epilogue fusion eliminates).
func ElementwiseDesc(d *gpu.Device, elems int, act Activation, dt tensor.DType) gpu.KernelDesc {
	threads := 256
	blocks := (elems + threads*4 - 1) / (threads * 4)
	if blocks == 0 {
		blocks = 1
	}
	return gpu.KernelDesc{
		Name:            "elementwise_" + act.String(),
		GridBlocks:      blocks,
		ThreadsPerBlock: threads,
		RegsPerThread:   32,
		FLOPs:           (2 + act.FLOPs()) * float64(elems),
		GlobalLoadB:     float64(elems * dt.Size()), // activation re-read (+bias, negligible)
		GlobalStoreB:    float64(elems * dt.Size()),
		OpClass:         gpu.OpClassSIMT,
		DType:           dt,
		AlignmentElems:  8,
		IssueEff:        0.85,
		MemEff:          0.95,
	}
}
