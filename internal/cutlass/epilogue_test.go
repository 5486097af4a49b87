package cutlass

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bolt/internal/tensor"
)

// checkStoreRow runs storeRow over acc and src (nil for no source) and
// fails at the first element whose bits differ from the scalar store.
// The one freedom is a NaN's payload where both products of the linear
// combination are NaN: which of the two the adder returns is its
// operand order, which Go leaves to the compiler.
func checkStoreRow(t *testing.T, what string, e *Epilogue, acc, src []float32) {
	t.Helper()
	got := make([]float32, len(acc))
	e.storeRow(got, acc, src)
	for j, a := range acc {
		var c float32
		if src != nil {
			c = src[j]
		}
		want := e.store(a, c)
		gb, wb := math.Float32bits(got[j]), math.Float32bits(want)
		if gb == wb {
			continue
		}
		if p, q := float64(e.Alpha*a), float64(e.Beta*c); math.IsNaN(p) && math.IsNaN(q) && got[j] != got[j] && want != want {
			continue
		}
		t.Fatalf("%s: element %d (acc %#x, src %#x, alpha %g, beta %g): storeRow gives %#x, store %#x",
			what, j, math.Float32bits(a), math.Float32bits(c), e.Alpha, e.Beta, gb, wb)
	}
}

// epilogueSpecials are the values where a row pass could part from the
// scalar store: signed zeros, infinities, NaNs with payloads, half
// subnormals and the flush-to-zero band below them, the largest half
// and the first value that rounds to Inf, and tiny negatives that
// flush to -0 in a half but are below zero before the store.
var epilogueSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7FC00000), math.Float32frombits(0xFFC00001), math.Float32frombits(0x7F800001),
	float32(math.Ldexp(1, -24)), float32(math.Ldexp(3, -24)), float32(math.Ldexp(1023, -24)), // half subnormals
	-float32(math.Ldexp(5, -24)),
	float32(math.Ldexp(1, -25)), -float32(math.Ldexp(1, -26)), -float32(math.Ldexp(3, -27)), // flush to ±0
	-math.SmallestNonzeroFloat32, math.SmallestNonzeroFloat32,
	65504, -65504, 65520, -65520, 65519.99, math.MaxFloat32, -math.MaxFloat32,
	1, -1, 0.5, -2.75, 3, -3, 6, 20.5, -20.5, 1e-4, -1e-4,
}

// withGoStoreRow runs f with storeRow's F16C pass deselected, so that
// every row takes the Go passes.
func withGoStoreRow(f func()) {
	defer func(v bool) { haveF16C = v }(haveF16C)
	haveF16C = false
	f()
}

// Property: storeRow is store, element by element and bit for bit, for
// every activation, output dtype and source (a bias vector, a row of C,
// none), with Alpha and Beta that are negative, zero or NaNs with a
// payload, over rows that hold every special value against every other,
// with the F16C pass selected (where the host has it) and with the Go
// passes. A NaN alpha against a NaN accumulator, stored as FP32, pins
// which of the two the multiply returns.
func TestStoreRowMatchesStore(t *testing.T) {
	if !haveF16C {
		t.Log("no F16C pass on this host: the Go passes are checked twice")
	}
	t.Run("selected body", checkStoreRowMatchesStore)
	t.Run("Go passes", func(t *testing.T) { withGoStoreRow(func() { checkStoreRowMatchesStore(t) }) })
}

func checkStoreRowMatchesStore(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	n := len(epilogueSpecials)
	// Every special against every special, then normals.
	acc, src := make([]float32, n*n+64), make([]float32, n*n+64)
	for i := range n * n {
		acc[i], src[i] = epilogueSpecials[i/n], epilogueSpecials[i%n]
	}
	for i := n * n; i < len(acc); i++ {
		acc[i], src[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
	}
	nan := math.Float32frombits(0x7FC0BEEF)
	scales := [][2]float32{{1, 1}, {1, 0}, {0, 1}, {0, 0}, {-0.5, 2}, {1.5, -0.25}, {-1, -1}, {nan, 1}, {1, nan}, {nan, -nan}}
	for act := ActIdentity; act <= ActSigmoid; act++ {
		for _, out := range []tensor.DType{tensor.FP16, tensor.FP32, tensor.INT8} {
			for _, ab := range scales {
				for _, source := range []string{"bias vector", "C row", "no source"} {
					e := Epilogue{Alpha: ab[0], Beta: ab[1], BiasVector: source == "bias vector", Act: act, OutDType: out}
					s := src
					if source == "no source" {
						s = nil
					}
					what := fmt.Sprintf("%v %v alpha %g beta %g %s", act, out, ab[0], ab[1], source)
					checkStoreRow(t, what, &e, acc, s)
					// Short rows: a tile's last columns, one lane and
					// one 8-lane group with a ragged tail.
					checkStoreRow(t, what+", 1 column", &e, acc[3:4], s[:min(len(s), 1)])
					checkStoreRow(t, what+", 11 columns", &e, acc[5:16], s[:min(len(s), 11)])
				}
			}
		}
	}
}

// Every float32 bit pattern, as the accumulator of the plain FP16 store
// (Identity, alpha 1, beta 0, no source), through the F16C pass gives
// store's bits: the two fix-up blends cover every input on which the
// hardware's rounding parts from fp16.Round.
func TestStoreRowExhaustive(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("2^32 inputs: skipped under -short and -race")
	}
	if !haveF16C {
		t.Skip("no F16C pass on this host")
	}
	e := DefaultEpilogue()
	// Each goroutine sweeps one sign and reports the first pattern it
	// disagrees on, or ok.
	type verdict struct {
		acc, got, want uint32
		ok             bool
	}
	done := make(chan verdict, 2)
	for _, sign := range []uint32{0, 0x80000000} {
		go func() {
			const chunk = 1 << 12
			acc, got := make([]float32, chunk), make([]float32, chunk)
			for abs := uint32(0); abs < 1<<31; abs += chunk {
				for i := range acc {
					acc[i] = math.Float32frombits((abs + uint32(i)) | sign)
				}
				e.storeRowSIMD(got, acc, nil)
				for i, a := range acc {
					if g, w := math.Float32bits(got[i]), math.Float32bits(e.store(a, 0)); g != w {
						done <- verdict{acc: math.Float32bits(a), got: g, want: w}
						return
					}
				}
			}
			done <- verdict{ok: true}
		}()
	}
	for range 2 {
		if v := <-done; !v.ok {
			t.Errorf("acc %#x: the F16C pass gives %#x, store %#x", v.acc, v.got, v.want)
		}
	}
}

// FuzzEpilogueRow checks storeRow against the scalar store on raw
// float32 bits: acc and src are little-endian float32 rows (src padded
// with zeros or cut to acc's length, or no source at all), alpha and
// beta are float32 bit patterns, and kind picks the activation, the
// output dtype and the source. Each input runs with the F16C pass
// selected (where the host has it) and with the Go passes. The seed corpus in
// testdata/fuzz/FuzzEpilogueRow runs with the other tests;
// go test -run '^$' -fuzz FuzzEpilogueRow ./internal/cutlass/ explores.
func FuzzEpilogueRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, accBytes, srcBytes []byte, alpha, beta uint32, kind uint8) {
		acc := floatsLE(accBytes)
		var src []float32
		if kind/18%2 == 0 {
			src = floatsLE(srcBytes)
			src = append(src, make([]float32, max(0, len(acc)-len(src)))...)[:len(acc)]
		}
		e := Epilogue{Alpha: math.Float32frombits(alpha), Beta: math.Float32frombits(beta),
			BiasVector: src != nil,
			Act:        Activation(kind % 6),
			OutDType:   []tensor.DType{tensor.FP16, tensor.FP32, tensor.INT8}[kind/6%3]}
		what := fmt.Sprintf("%v %v source %t", e.Act, e.OutDType, src != nil)
		checkStoreRow(t, what, &e, acc, src)
		withGoStoreRow(func() { checkStoreRow(t, what+", Go passes", &e, acc, src) })
	})
}

// floatsLE decodes b as little-endian float32 bit patterns, dropping a
// ragged tail.
func floatsLE(b []byte) []float32 {
	v := make([]float32, len(b)/4)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return v
}
