// Quickstart: build a small convolutional network with the public API,
// compile it with Bolt, execute it functionally, and compare against
// the Ansor-style baseline — the whole paper in 80 lines. It exits
// non-zero when the two outputs differ by more than FP16 noise.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"bolt"
)

// fp16Noise bounds |bolt - baseline| on the output probabilities: two
// FP16 ulps at 1.0, the largest probability.
const fp16Noise = 1.0 / 1024

func main() {
	dev := bolt.T4()

	build := func() *bolt.Graph {
		b := bolt.NewBuilder()
		// A PyTorch-style NCHW input: Bolt's layout pass will move the
		// network to NHWC for the templated kernels.
		x := b.Input("image", bolt.FP16, 8, 16, 32, 32)
		// Conv + bias + activation: fused into one templated kernel's
		// epilogue.
		c := b.Conv2D(x, b.Weight("w1", 32, 3, 3, 16), 1, 1)
		c = b.BiasAdd(c, b.Weight("b1", 32))
		c = b.Activation(c, bolt.Hardswish)
		// A channel-preserving 1x1 conv: threadblock residence holds,
		// so Bolt fuses the pair into one persistent kernel.
		c = b.Conv2D(c, b.Weight("w2", 32, 1, 1, 32), 1, 0)
		c = b.BiasAdd(c, b.Weight("b2", 32))
		c = b.Activation(c, bolt.ReLU)
		// Classifier head.
		g := b.GlobalAvgPool(c)
		d := b.Dense(g, b.Weight("wfc", 32, 10))
		d = b.BiasAdd(d, b.Weight("bfc", 10))
		return b.Build(b.Softmax(d))
	}

	// Compile with Bolt: hardware-native templated search.
	boltRes, err := bolt.Compile(build(), dev, bolt.Options{EmitSource: true})
	if err != nil {
		log.Fatal(err)
	}
	// Compile the same network with the opaque auto-tuner baseline.
	baseRes, err := bolt.CompileBaseline(build(), dev, 64)
	if err != nil {
		log.Fatal(err)
	}

	// Functional execution: both pipelines must agree numerically.
	in := bolt.NewTensor(bolt.FP16, 8, 16, 32, 32)
	in.FillRandom(42, 1)
	outBolt := boltRes.Module.Run(map[string]*bolt.Tensor{"image": in})
	outBase := baseRes.Module.Run(map[string]*bolt.Tensor{"image": in})

	fmt.Println("=== quickstart: Bolt vs opaque auto-tuning ===")
	fmt.Printf("output shape:              %v (probabilities, rows sum to 1)\n", outBolt.Shape())
	d := maxDiff(outBolt, outBase)
	fmt.Printf("max |bolt - baseline|:     %.4g (FP16 noise only)\n", d)
	if d > fp16Noise {
		log.Fatalf("bolt and the baseline differ by %.4g, more than FP16 noise (%.4g)", d, fp16Noise)
	}
	fmt.Printf("bolt latency:              %.1f us  (%d kernel launches)\n",
		boltRes.Module.Time()*1e6, boltRes.Module.LaunchCount())
	fmt.Printf("baseline latency:          %.1f us  (%d kernel launches)\n",
		baseRes.Module.Time()*1e6, baseRes.Module.LaunchCount())
	fmt.Printf("speedup:                   %.2fx\n", baseRes.Module.Time()/boltRes.Module.Time())
	fmt.Printf("bolt tuning time:          %v (templated search)\n", boltRes.TuningTime.Round(1e9))
	fmt.Printf("baseline tuning time:      %v (opaque search)\n", baseRes.TuningTime.Round(1e9))

	fmt.Println("\n=== one generated kernel (white-box CUTLASS instantiation) ===")
	src := boltRes.Module.Sources()
	fmt.Println(firstBlock(src))
}

func maxDiff(a, b *bolt.Tensor) float64 {
	m := 0.0
	for i, v := range a.Data() {
		d := float64(v - b.Data()[i])
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

func firstBlock(src string) string {
	for i := 1; i < len(src); i++ {
		if src[i-1] == '\n' && src[i] == '\n' {
			return src[:i]
		}
	}
	return src
}
