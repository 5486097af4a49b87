package cutlass

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"bolt/internal/tensor"
)

// withGoMicroKernel runs f with the micro-kernel forced to its Go body,
// the one every architecture without assembly runs.
func withGoMicroKernel(f func()) {
	defer func(v bool) { haveAVX2 = v }(haveAVX2)
	haveAVX2 = false
	f()
}

// The selected micro-kernel (the AVX2 body where the host has it)
// agrees bit for bit with the Go body at every run length around the
// loop, with four distinct lanes and with off lanes sharing one junk
// row, on finite and non-finite values, and writes nothing outside the
// four accumulator rows.
func TestMicroKernelMatchesGoBody(t *testing.T) {
	if !haveAVX2 {
		t.Log("no AVX2 body on this host: the Go body is checked against itself")
	}
	const maxTaps = 37
	rng := rand.New(rand.NewSource(30))
	b := make([]float32, maxTaps*panelCols)
	for i := range b {
		b[i] = rng.Float32()*4 - 2
	}
	// One kind of non-finite value per column, so no sum sees two NaNs
	// of different payloads (which of them survives is the adder's
	// operand order, not arithmetic). Columns 4 and up stay finite.
	kinds := []float32{float32(math.Inf(1)), float32(math.NaN()), float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32}
	for t := 0; t < maxTaps; t += 5 {
		for j, v := range kinds {
			b[(t+j)%maxTaps*panelCols+j] = v
		}
	}
	var x [4][]float32
	for l := range x {
		x[l] = make([]float32, maxTaps)
		for t := range x[l] {
			x[l][t] = rng.Float32()*2 - 1
		}
		x[l][(3*l+1)%maxTaps] = 0
		x[l][(5*l+2)%maxTaps] = float32(math.Copysign(0, -1))
		x[l][(7*l+3)%maxTaps] = math.SmallestNonzeroFloat32
	}
	// Five rows of panelCols apart by a guard of 3 floats: rows 0-3 for
	// the lanes, row 4 the shared junk row.
	const stride = panelCols + 3
	init := make([]float32, 5*stride+3)
	for i := range init {
		init[i] = rng.Float32()*8 - 4
	}
	rows := func(buf []float32, junk bool) *[4]*[panelCols]float32 {
		var c [4]*[panelCols]float32
		for l := range c {
			r := l
			if junk && l%2 == 1 {
				r = 4
			}
			c[l] = (*[panelCols]float32)(buf[3+r*stride:])
		}
		return &c
	}
	for n := 0; n <= maxTaps; n++ {
		for _, junk := range []bool{false, true} {
			xs := x
			for l := range xs {
				xs[l] = xs[l][:n]
				if junk && l%2 == 1 { // an off lane reads an on lane's input
					xs[l] = xs[l-1][:n]
				}
			}
			got, want := append([]float32(nil), init...), append([]float32(nil), init...)
			xg, xw := xs, xs
			microKernel(rows(got, junk), &xg, b[:n*panelCols])
			microKernelGo(rows(want, junk), &xw, b[:n*panelCols])
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("n %d junk %v: element %d is %g (%#x), want %g (%#x)", n, junk, i,
						got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
			for i := range got {
				if row := (i - 3) / stride; i < 3 || (i-3)%stride >= panelCols || row == 4 && !junk || junk && row%2 == 1 && row != 4 {
					if math.Float32bits(got[i]) != math.Float32bits(init[i]) {
						t.Fatalf("n %d junk %v: element %d outside the accumulator rows changed", n, junk, i)
					}
				}
			}
		}
	}
}

// The scaled filter pack is the BatchNorm fold it replaces: panels
// packed from w with a FilterScale hold the bits of panels packed from
// scaledFilter's materialized round(w·scale), for FP16 (products on
// subnormal halves and below 2^-24 included), FP32 and INT8 (the grid
// recalibrated to the scaled range), at one and at many panels, on
// both sides of the pack's split and at every partition GOMAXPROCS
// gives it.
func TestScaledFilterPanelsMatchMaterialized(t *testing.T) {
	shapes := []struct{ oc, k int }{
		{1, 3},
		{6, 1}, // one tap: both strides are 1
		{7, 27},
		{17, 64},   // one element past a panel
		{33, 7936}, // 261888 elements: just below splitMACs
		{33, 7952}, // 262416: just above
		{300, 1000},
	}
	if lo, hi := 33*7936, 33*7952; lo >= splitMACs || hi < splitMACs {
		t.Fatalf("shapes no longer straddle splitMACs = %d", splitMACs)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	subnormal := 0
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, dt := range []tensor.DType{tensor.FP16, tensor.FP32, tensor.INT8} {
			for i, s := range shapes {
				rng := rand.New(rand.NewSource(int64(10*i) + int64(dt)))
				src := tensor.New(tensor.FP32, s.oc, 1, 1, s.k)
				for j := range src.Data() {
					src.Data()[j] = float32(rng.NormFloat64() * math.Ldexp(1, rng.Intn(16)-14))
				}
				w := src.AsType(dt)
				scale := randFilterScale(rng, s.oc)
				before := w.Clone()
				var scaled, plain panelCache
				got := scaled.packed(w, scale, s.k, s.oc, 1, s.k)
				want := plain.packed(scaledFilter(w, scale), nil, s.k, s.oc, 1, s.k)
				for j := range want {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Fatalf("procs %d %v %+v: panel element %d is %g (%#x), want %g (%#x)", procs, dt, s, j,
							got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
					}
					if a := math.Abs(float64(got[j])); dt == tensor.FP16 && a > 0 && a < 0x1p-14 {
						subnormal++
					}
				}
				for j, v := range before.Data() {
					if math.Float32bits(w.Data()[j]) != math.Float32bits(v) {
						t.Fatalf("procs %d %v %+v: the pack wrote to its weights", procs, dt, s)
					}
				}
			}
		}
	}
	if subnormal == 0 {
		t.Fatal("no scaled FP16 weight is subnormal: the case guards nothing")
	}
}
