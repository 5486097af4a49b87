package cutlass

import (
	"fmt"
	"math"

	"bolt/internal/fp16"
	"bolt/internal/tensor"
)

// Activation enumerates the elementwise epilogue functions CUTLASS can
// fuse after the accumulator (paper §3.3 explores these for the
// system-model codesign study).
type Activation int

const (
	// ActIdentity applies no nonlinearity.
	ActIdentity Activation = iota
	// ActReLU is max(0, x).
	ActReLU
	// ActGELU is the Gaussian error linear unit (tanh approximation).
	ActGELU
	// ActHardswish is x * relu6(x+3) / 6.
	ActHardswish
	// ActSoftplus is log(1 + exp(x)).
	ActSoftplus
	// ActSigmoid is 1 / (1 + exp(-x)).
	ActSigmoid
)

// String names the activation as models spell it.
func (a Activation) String() string {
	switch a {
	case ActIdentity:
		return "identity"
	case ActReLU:
		return "relu"
	case ActGELU:
		return "gelu"
	case ActHardswish:
		return "hardswish"
	case ActSoftplus:
		return "softplus"
	case ActSigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("activation(%d)", int(a))
	}
}

// Apply evaluates the activation in FP32, matching how the epilogue
// operates on FP32 accumulator fragments before the half store.
func (a Activation) Apply(x float32) float32 {
	switch a {
	case ActReLU:
		if x < 0 {
			return 0
		}
		return x
	case ActGELU:
		// tanh approximation used by CUTLASS's GELU_taylor.
		x64 := float64(x)
		return float32(0.5 * x64 * (1 + math.Tanh(0.7978845608028654*(x64+0.044715*x64*x64*x64))))
	case ActHardswish:
		r := float64(x) + 3
		if r < 0 {
			r = 0
		} else if r > 6 {
			r = 6
		}
		return float32(float64(x) * r / 6)
	case ActSoftplus:
		x64 := float64(x)
		if x64 > 20 { // avoid overflow; softplus(x) ~= x
			return x
		}
		return float32(math.Log1p(math.Exp(x64)))
	case ActSigmoid:
		return float32(1 / (1 + math.Exp(-float64(x))))
	default:
		return x
	}
}

// FLOPs returns the approximate instruction cost per element, used when
// pricing a standalone elementwise kernel (the unfused baseline).
func (a Activation) FLOPs() float64 {
	switch a {
	case ActReLU:
		return 1
	case ActGELU:
		return 5 // tanh-approx polynomial + one SFU tanh
	case ActHardswish:
		return 4 // clamp + multiply, plain ALU
	case ActSoftplus:
		return 9 // exp + log1p, two SFU trips
	case ActSigmoid:
		return 6
	default:
		return 0
	}
}

// Epilogue describes the fused tail of a GEMM/Conv kernel:
//
//	D = act(alpha * accum + beta * C [+ bias broadcast over columns])
//
// This covers three of the four CUTLASS epilogue patterns the paper
// lists in §3.1: element-wise operators, data type conversion
// (OutDType) and broadcast vector over columns (BiasVector). The
// fourth, partial column reduction, is left out: no lowering asks for
// it.
type Epilogue struct {
	Alpha float32
	Beta  float32
	// BiasVector: C is interpreted as a length-N vector broadcast over
	// rows (the BiasAdd pattern) rather than a full matrix.
	BiasVector bool
	Act        Activation
	// OutDType is the store type (the "data type conversion" pattern).
	OutDType tensor.DType
}

// DefaultEpilogue is the plain linear-combination epilogue
// (alpha=1, beta=0, identity activation, FP16 out).
func DefaultEpilogue() Epilogue {
	return Epilogue{Alpha: 1, OutDType: tensor.FP16}
}

// BiasActivation builds the common BiasAdd+activation epilogue.
func BiasActivation(act Activation) Epilogue {
	return Epilogue{Alpha: 1, Beta: 1, BiasVector: true, Act: act, OutDType: tensor.FP16}
}

// apply computes one output element from an accumulator value and the
// corresponding source operand element (bias or C matrix; 0 if none).
func (e *Epilogue) apply(acc float32, c float32) float32 {
	v := e.Alpha*acc + e.Beta*c
	return e.Act.Apply(v)
}

// store is apply followed by the rounding a store to OutDType FP16
// performs (INT8 outputs are calibrated over the whole tensor later).
// It and apply are the epilogue's scalar definition: storeRow must
// give their bytes, and the direct loops the kernels are tested
// against call them per element. They take a pointer so that a call
// does not copy the Epilogue through the stack.
func (e *Epilogue) store(acc float32, c float32) float32 {
	v := e.apply(acc, c)
	if e.OutDType == tensor.FP16 {
		return fp16.Round(v)
	}
	return v
}

// storeRow sets dst[j] = store(acc[j], src[j]) over a row of a tile,
// with a source element of 0 throughout when src is nil. Where the
// processor has AVX2 and F16C, storeRowSIMD takes the row's whole
// 8-lane groups for Identity or ReLU into FP16 or FP32. The rest, and
// every other epilogue, is store as passes over the row, each picked
// once per row: the linear combination (apply's expression, so a target
// that fuses the multiply-add fuses it the same way), the activation (a
// branch-free ReLU, Apply per element for the others) and one
// fp16.Quantize for an FP16 store.
func (e *Epilogue) storeRow(dst, acc, src []float32) {
	dst = dst[:len(acc)]
	if src != nil {
		src = src[:len(acc)]
	}
	n := e.storeRowSIMD(dst, acc, src)
	if n == len(acc) {
		return
	}
	dst, acc = dst[n:], acc[n:]
	if src != nil {
		src = src[n:]
	}
	alpha, beta := e.Alpha, e.Beta
	if src == nil {
		var c float32
		for j, v := range acc {
			dst[j] = alpha*v + beta*c
		}
	} else {
		for j, v := range acc {
			dst[j] = alpha*v + beta*src[j]
		}
	}
	switch e.Act {
	case ActIdentity:
	case ActReLU:
		reluRow(dst)
	default:
		for j, v := range dst {
			dst[j] = e.Act.Apply(v)
		}
	}
	if e.OutDType == tensor.FP16 {
		fp16.Quantize(dst)
	}
}

// reluRow is ActReLU.Apply over a row without a branch per element,
// whose outcome a conv's outputs leave to chance: the values below
// zero, which are the float32 bit patterns 0x80000001 (the negative
// subnormal nearest zero) through 0xFF800000 (-Inf), become +0, and -0
// and NaN keep their bits, as x < 0 is false for them.
func reluRow(row []float32) {
	for j, v := range row {
		b := math.Float32bits(v)
		// All ones when b-0x80000001 < 0x7F800000: the subtraction
		// borrows into the top bit of the 64-bit difference.
		neg := uint32(int64(uint64(b-0x80000001)-0x7F800000) >> 63)
		row[j] = math.Float32frombits(b &^ neg)
	}
}

// sfuPenalty converts one epilogue (CUDA-core / SFU) operation into
// tensor-core-equivalent flops for pricing: the epilogue phase issues
// to the FP32 ALUs and the special-function units, which run at a
// small fraction of HMMA throughput. This is why exotic activations
// have a visible (if modest) cost even when fused (paper Table 4:
// Softplus costs ~7.7% end-to-end).
const sfuPenalty = 10

// flopsPerElement counts epilogue arithmetic per output element in
// tensor-core-equivalent flops (for kernel pricing; see sfuPenalty).
func (e Epilogue) flopsPerElement() float64 {
	f := 1.0 // alpha scale
	if e.Beta != 0 {
		f += 2
	}
	f += e.Act.FLOPs() * sfuPenalty
	return f
}

// FLOPsOn returns the total epilogue arithmetic for an m×n output, for
// external kernel pricing (persistent kernels).
func (e Epilogue) FLOPsOn(m, n int) float64 {
	return e.flopsPerElement() * float64(m) * float64(n)
}

// String summarizes the epilogue for kernel names.
func (e Epilogue) String() string {
	s := "linear_combination"
	if e.BiasVector {
		s += "_bias"
	}
	if e.Act != ActIdentity {
		s += "_" + e.Act.String()
	}
	return s
}
