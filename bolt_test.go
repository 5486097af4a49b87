package bolt_test

import (
	"strings"
	"testing"
	"time"

	"bolt"
)

// buildTiny constructs a small NCHW CNN through the public API.
func buildTiny() *bolt.Graph {
	b := bolt.NewBuilder()
	x := b.Input("image", bolt.FP16, 4, 8, 16, 16)
	c := b.Conv2D(x, b.Weight("w1", 16, 3, 3, 8), 1, 1)
	c = b.BiasAdd(c, b.Weight("b1", 16))
	c = b.Activation(c, bolt.GELU)
	c = b.Conv2D(c, b.Weight("w2", 16, 1, 1, 16), 1, 0)
	c = b.Activation(c, bolt.ReLU)
	g := b.GlobalAvgPool(c)
	d := b.Dense(g, b.Weight("fc", 16, 8))
	return b.Build(b.Softmax(d))
}

func TestPublicCompileAndRun(t *testing.T) {
	dev := bolt.T4()
	res, err := bolt.Compile(buildTiny(), dev, bolt.Options{EmitSource: true})
	if err != nil {
		t.Fatal(err)
	}
	in := bolt.NewTensor(bolt.FP16, 4, 8, 16, 16)
	in.FillRandom(1, 1)
	out := res.Module.Run(map[string]*bolt.Tensor{"image": in})
	if len(out.Shape()) != 2 || out.Shape()[0] != 4 || out.Shape()[1] != 8 {
		t.Fatalf("output shape %v", out.Shape())
	}
	if res.TuningTime <= 0 {
		t.Error("tuning time must be accounted")
	}
	if !strings.Contains(res.Module.Sources(), "cutlass") {
		t.Error("EmitSource should produce CUTLASS instantiations")
	}
}

func TestPublicBaselineAgreesNumerically(t *testing.T) {
	dev := bolt.T4()
	boltRes, err := bolt.Compile(buildTiny(), dev, bolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := bolt.CompileBaseline(buildTiny(), dev, 16)
	if err != nil {
		t.Fatal(err)
	}
	in := bolt.NewTensor(bolt.FP16, 4, 8, 16, 16)
	in.FillRandom(2, 1)
	a := boltRes.Module.Run(map[string]*bolt.Tensor{"image": in})
	b := baseRes.Module.Run(map[string]*bolt.Tensor{"image": in})
	for i := range a.Data() {
		d := a.Data()[i] - b.Data()[i]
		if d < -0.02 || d > 0.02 {
			t.Fatalf("outputs disagree at %d: %g vs %g", i, a.Data()[i], b.Data()[i])
		}
	}
	if boltRes.Module.Time() >= baseRes.Module.Time() {
		t.Error("Bolt should be faster than the baseline")
	}
	if boltRes.TuningTime >= baseRes.TuningTime {
		t.Error("Bolt should tune faster than the baseline")
	}
}

func TestPublicProfilers(t *testing.T) {
	dev := bolt.T4()
	cfg, tm, err := bolt.ProfileGemm(dev, 1280, 3072, 768)
	if err != nil {
		t.Fatal(err)
	}
	if tm <= 0 {
		t.Error("non-positive GEMM time")
	}
	if err := cfg.Validate(dev); err != nil {
		t.Errorf("profiled config invalid: %v", err)
	}
	shape := bolt.ConvShape{N: 8, H: 28, W: 28, IC: 64, OC: 64, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	_, ct, err := bolt.ProfileConv(dev, shape)
	if err != nil {
		t.Fatal(err)
	}
	if ct <= 0 {
		t.Error("non-positive conv time")
	}
}

func TestPublicA100(t *testing.T) {
	dev := bolt.A100()
	cfg, tm, err := bolt.ProfileGemm(dev, 4096, 4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Ampere profiles must pick multi-stage (cp.async) pipelines.
	if cfg.Stages < 3 {
		t.Errorf("A100 config uses %d stages, want >= 3", cfg.Stages)
	}
	tflops := 2.0 * 4096 * 4096 * 4096 / tm / 1e12
	if tflops < 200 {
		t.Errorf("A100 large GEMM at %.0f TFLOPS, want near the 312 peak", tflops)
	}
	// End-to-end compile on Ampere.
	res, err := bolt.Compile(buildTiny(), dev, bolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Module.Time() <= 0 {
		t.Error("A100 module time must be positive")
	}
}

func TestTuningTimeBudget(t *testing.T) {
	// The paper's headline: common CNNs tune within 20 minutes.
	dev := bolt.T4()
	res, err := bolt.Compile(buildTiny(), dev, bolt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TuningTime > 20*time.Minute {
		t.Errorf("tuning took %v, want < 20 minutes", res.TuningTime)
	}
}
