// Command boltc compiles a model-zoo network end-to-end through Bolt
// (or the Ansor baseline) and reports per-kernel timing, throughput,
// tuning cost, and optionally the generated CUDA-like source.
//
// Usage:
//
//	boltc -model repvgg-a0
//	boltc -model resnet50 -baseline -trials 128
//	boltc -model vgg16 -emit        # print generated kernel sources
//	boltc -model repvgg-a0 -cache tune.json -jobs 8
//	boltc -model repvgg-a0 -cache tune.json   # warm: zero measurements
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bolt"
	"bolt/internal/models"
	"bolt/internal/relay"
)

func buildModel(name string, batch int) *relay.Graph {
	switch name {
	case "vgg16":
		return models.VGG(16, batch)
	case "vgg19":
		return models.VGG(19, batch)
	case "resnet18":
		return models.ResNet(18, batch)
	case "resnet50":
		return models.ResNet(50, batch)
	case "repvgg-a0":
		return models.RepVGG("A0", batch, models.RepVGGOptions{})
	case "repvgg-a1":
		return models.RepVGG("A1", batch, models.RepVGGOptions{})
	case "repvgg-b0":
		return models.RepVGG("B0", batch, models.RepVGGOptions{})
	case "repvggaug-a0":
		return models.RepVGG("A0", batch, models.RepVGGOptions{Deepen1x1: true, Activation: bolt.Hardswish})
	default:
		return nil
	}
}

func main() {
	model := flag.String("model", "repvgg-a0", "vgg16|vgg19|resnet18|resnet50|repvgg-a0|repvgg-a1|repvgg-b0|repvggaug-a0")
	batch := flag.Int("batch", 32, "inference batch size")
	baseline := flag.Bool("baseline", false, "compile with the Ansor-style baseline tuner")
	trials := flag.Int("trials", 900, "baseline tuning trials per task")
	emit := flag.Bool("emit", false, "print generated kernel source")
	topk := flag.Int("report", 10, "show the k slowest kernels")
	cacheFile := flag.String("cache", "", "persistent tuning-log database (JSON); loaded before compiling, saved after")
	jobs := flag.Int("jobs", 1, "concurrent profiling workers (tuning time reports the pool's critical path)")
	flag.Parse()
	if *jobs < 1 {
		*jobs = 1
	}

	g := buildModel(*model, *batch)
	if g == nil {
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *model)
		os.Exit(2)
	}
	if *baseline && (*cacheFile != "" || *jobs > 1 || *emit) {
		// The opaque search has no tuning log, no profiling pool and no
		// templated source to emit.
		fmt.Fprintln(os.Stderr, "-cache, -jobs and -emit apply to the Bolt pipeline only; they cannot be combined with -baseline")
		flag.Usage()
		os.Exit(2)
	}
	dev := bolt.T4()

	t0 := time.Now()
	var res *bolt.CompileResult
	var err error
	if *baseline {
		res, err = bolt.CompileBaseline(g, dev, *trials)
	} else {
		res, err = bolt.Compile(g, dev, bolt.Options{EmitSource: *emit, CacheFile: *cacheFile, Jobs: *jobs})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m := res.Module

	tuner := "bolt (hardware-native templated search)"
	if *baseline {
		tuner = "ansor baseline (opaque schedule search)"
	}
	fmt.Printf("model: %s  batch: %d  device: %s\n", *model, *batch, dev.Name)
	fmt.Printf("tuner: %s\n", tuner)
	fmt.Printf("compile wall time: %v   simulated tuning time: %v\n",
		time.Since(t0).Round(time.Millisecond), res.TuningTime.Round(time.Second))
	if !*baseline {
		fmt.Printf("tuning pipeline: %d workloads -> %d unique, %d cache hits, %d profiled (%d candidate measurements, jobs=%d)\n",
			res.Tuning.Workloads, res.Tuning.UniqueWorkloads, res.Tuning.CacheHits,
			res.Tuning.ProfiledWorkloads, res.Tuning.Measurements, *jobs)
	}
	fmt.Printf("kernel launches per batch: %d\n", m.LaunchCount())
	fmt.Printf("modeled latency: %.3f ms   throughput: %.0f images/sec\n",
		m.Time()*1e3, m.Throughput(*batch))
	mem := m.Memory()
	fmt.Printf("parameters: %.1f MB   peak activation: %.1f MB\n",
		float64(mem.ParamBytes)/1e6, float64(mem.PeakActivationBytes)/1e6)
	fmt.Printf("activation arena: %.1f MB planned (%d buffers) vs %.1f MB naive sum — %.1fx reuse\n\n",
		float64(mem.PlannedArenaBytes)/1e6, mem.ArenaBuffers,
		float64(mem.NaiveActivationBytes)/1e6, mem.ReuseFactor)

	fmt.Printf("slowest kernels:\n")
	for i, r := range m.Report() {
		if i >= *topk {
			break
		}
		fmt.Printf("  %5.1f%%  %8.1f us  %-18s %s\n", r.Percent, r.Time*1e6, r.Op, r.Name)
	}

	if *emit {
		fmt.Printf("\n--- generated kernel sources ---\n%s", m.Sources())
	}
}
