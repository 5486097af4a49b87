package cutlass

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bolt/internal/fp16"
	"bolt/internal/tensor"
)

// checkStoreRow runs storeRow over acc and bias (nil without
// BiasVector) and fails at the first element whose bits differ from
// the scalar store, NaN payloads included: where acc and bias are both
// NaN, the add returns acc's, in the row pass as in the compiled
// scalar add.
func checkStoreRow(t *testing.T, what string, e *Epilogue, acc, bias []float32) {
	t.Helper()
	got := make([]float32, len(acc))
	e.storeRow(got, acc, bias)
	for j, a := range acc {
		var b float32
		if bias != nil {
			b = bias[j]
		}
		if gb, wb := math.Float32bits(got[j]), math.Float32bits(e.store(a, b)); gb != wb {
			t.Fatalf("%s: element %d (acc %#x, bias %#x): storeRow gives %#x, store %#x",
				what, j, math.Float32bits(a), math.Float32bits(b), gb, wb)
		}
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
// every activation, output dtype and source (a bias vector or none),
// over rows that hold every special value against every other (NaNs
// with payloads in both acc and bias among them), with the F16C pass
// selected (where the host has it) and with the Go passes.
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
	acc, bias := make([]float32, n*n+64), make([]float32, n*n+64)
	for i := range n * n {
		acc[i], bias[i] = epilogueSpecials[i/n], epilogueSpecials[i%n]
	}
	for i := n * n; i < len(acc); i++ {
		acc[i], bias[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
	}
	for act := ActIdentity; act <= ActSigmoid; act++ {
		for _, out := range []tensor.DType{tensor.FP16, tensor.FP32, tensor.INT8} {
			for _, withBias := range []bool{true, false} {
				e := Epilogue{BiasVector: withBias, Act: act, OutDType: out}
				b := bias
				if !withBias {
					b = nil
				}
				what := fmt.Sprintf("%v %v bias %t", act, out, withBias)
				checkStoreRow(t, what, &e, acc, b)
				// Short rows: a tile's last columns, one lane and
				// one 8-lane group with a ragged tail.
				checkStoreRow(t, what+", 1 column", &e, acc[3:4], b[:min(len(b), 1)])
				checkStoreRow(t, what+", 11 columns", &e, acc[5:16], b[:min(len(b), 11)])
			}
		}
	}
}

// The zero Epilogue is DefaultEpilogue and stores the accumulator as
// FP16 (while the epilogue had an Alpha, the zero value zeroed every
// output).
func TestZeroEpilogueIsDefault(t *testing.T) {
	var zero Epilogue
	if zero != DefaultEpilogue() {
		t.Fatalf("Epilogue{} = %+v, DefaultEpilogue() = %+v", zero, DefaultEpilogue())
	}
	acc := []float32{1.5, -2, 0.1, 65504}
	got := make([]float32, len(acc))
	zero.storeRow(got, acc, nil)
	for j, a := range acc {
		if got[j] != fp16.Round(a) {
			t.Errorf("Epilogue{} stores %g as %g, want %g", a, got[j], fp16.Round(a))
		}
	}
}

// Every float32 bit pattern, as the accumulator of the plain FP16 store
// (Identity, no bias), through the F16C pass gives
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
// float32 bits: acc and bias are little-endian float32 rows (bias
// padded with zeros or cut to acc's length, or no bias at all), and
// kind picks the activation, the output dtype and whether there is a
// bias. Each input runs with the F16C pass selected (where the host has
// it) and with the Go passes. The seed corpus in
// testdata/fuzz/FuzzEpilogueRow runs with the other tests;
// go test -run '^$' -fuzz FuzzEpilogueRow ./internal/cutlass/ explores.
func FuzzEpilogueRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, accBytes, biasBytes []byte, kind uint8) {
		acc := floatsLE(accBytes)
		var bias []float32
		if kind/18%2 == 0 {
			bias = floatsLE(biasBytes)
			bias = append(bias, make([]float32, max(0, len(acc)-len(bias)))...)[:len(acc)]
		}
		e := Epilogue{BiasVector: bias != nil,
			Act:      Activation(kind % 6),
			OutDType: []tensor.DType{tensor.FP16, tensor.FP32, tensor.INT8}[kind/6%3]}
		what := fmt.Sprintf("%v %v bias %t", e.Act, e.OutDType, e.BiasVector)
		checkStoreRow(t, what, &e, acc, bias)
		withGoStoreRow(func() { checkStoreRow(t, what+", Go passes", &e, acc, bias) })
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
