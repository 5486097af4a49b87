package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bolt"
	"bolt/internal/costmodel"
	"bolt/internal/models"
	"bolt/internal/profiler"
	"bolt/internal/relay"
	"bolt/internal/tunelog"
)

// zooModel is one network of the paper's tuning story, at ImageNet
// resolution and batch 1.
type zooModel struct {
	name  string
	build func() *relay.Graph
}

var zoo = []zooModel{
	{"resnet18", func() *relay.Graph { return models.ResNet(18, 1) }},
	{"resnet50", func() *relay.Graph { return models.ResNet(50, 1) }},
	{"vgg16", func() *relay.Graph { return models.VGG(16, 1) }},
	{"repvgg-a0", func() *relay.Graph { return models.RepVGG("A0", 1, models.RepVGGOptions{}) }},
}

// guidedTopK is the guided compiles' per-workload measurement budget.
const guidedTopK = 8

type compileZoo struct {
	cfg config
	dir string
	dev *bolt.Device
	// zoo is the models of a pass and trainer the one whose cold compile
	// trains the shared cost model the guided compiles rank by.
	zoo     []zooModel
	trainer string
	// Kept from the latest traced pass for the probes.
	cold   map[string]*bolt.CompileResult
	guided []*bolt.CompileResult
	warm   []*bolt.CompileResult
	shared string
}

func setupCompileZoo(cfg config) (state, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "compile_zoo-")
	if err != nil {
		return nil, err
	}
	c := &compileZoo{cfg: cfg, dir: dir, dev: bolt.T4(), zoo: zoo, trainer: "resnet50"}
	if cfg.smoke {
		// The two models that build in milliseconds; ResNet-18 trains.
		c.zoo, c.trainer = []zooModel{zoo[0], zoo[3]}, zoo[0].name
	}
	// Set-up builds each zoo graph once and validates it: the user's
	// model-import step.
	for _, m := range c.zoo {
		if err := m.build().Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
	}
	return c, nil
}

func (c *compileZoo) close() { os.RemoveAll(c.dir) }

// rep is one pass: every model cold into its own fresh tuning log, the
// trainer cold then the other three guided into one shared log, then
// every model warm from its own log. The repetition index does not
// change the inputs: the zoo is the input, and tuning noise is a
// function of the workload alone.
//
// Every compile consumes a fresh graph. The pass builds all of them
// before the measured window: building is two thirds of a pass (VGG-16
// alone clears 550 MB three times) and its cost swings with the state
// of the host's page tables, which moved the rate of a pass that
// included it by 24% between runs.
func (c *compileZoo) rep(r int, rec *recorder) (repResult, error) {
	pass, err := os.MkdirTemp(c.dir, "pass-")
	if err != nil {
		return repResult{}, err
	}
	defer os.RemoveAll(pass)
	own := func(m zooModel) string { return filepath.Join(pass, m.name+".json") }
	shared := filepath.Join(pass, "shared.json")

	type job struct {
		kind string
		m    zooModel
		opts bolt.Options
		g    *relay.Graph
		out  *bolt.CompileResult
	}
	var jobs []*job
	for _, m := range c.zoo {
		jobs = append(jobs, &job{kind: "cold", m: m, opts: bolt.Options{Jobs: 2, CacheFile: own(m)}})
	}
	for _, m := range c.zoo {
		if m.name == c.trainer {
			jobs = append(jobs, &job{kind: "train", m: m, opts: bolt.Options{Jobs: 2, CacheFile: shared}})
		}
	}
	for _, m := range c.zoo {
		if m.name != c.trainer {
			jobs = append(jobs, &job{kind: "guided", m: m, opts: bolt.Options{Jobs: 2, CacheFile: shared, TopK: guidedTopK}})
		}
	}
	for _, m := range c.zoo {
		jobs = append(jobs, &job{kind: "warm", m: m, opts: bolt.Options{Jobs: 2, CacheFile: own(m)}})
	}
	for i, j := range jobs {
		s := rec.begin("models.build", -1, i)
		j.g = j.m.build()
		rec.end(s)
	}

	res := repResult{ops: len(jobs)}
	res.seconds, res.mallocs, err = measure(func() error {
		for i, j := range jobs {
			root := rec.begin("op.compile_"+j.kind, -1, i)
			s := rec.begin("bolt.Compile", root, i)
			start := time.Now()
			j.out, err = bolt.Compile(j.g, c.dev, j.opts)
			took := time.Since(start)
			rec.end(s)
			rec.end(root)
			if err != nil {
				return fmt.Errorf("%s compile of %s: %w", j.kind, j.m.name, err)
			}
			res.opMs = append(res.opMs, took.Seconds()*1e3)
			res.simOpUs = append(res.simOpUs, j.out.TuningTime.Seconds()*1e6)
			res.simSeconds += j.out.TuningTime.Seconds()
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	cold := make(map[string]*bolt.CompileResult)
	var guided, warm []*bolt.CompileResult
	for _, j := range jobs {
		switch j.kind {
		case "cold":
			cold[j.m.name] = j.out
		case "guided":
			guided = append(guided, j.out)
		case "warm":
			warm = append(warm, j.out)
		}
	}

	// A compile's output is the module and its tuning record. A warm
	// recompile must measure nothing and price exactly like the cold
	// compile whose log it read; a guided compile must stay within its
	// measurement budget once the model is trained.
	for i, m := range c.zoo {
		w, cd := warm[i], cold[m.name]
		if w.Tuning.Measurements != 0 || w.Tuning.CacheHits != w.Tuning.UniqueWorkloads ||
			w.Module.Time() != cd.Module.Time() || cd.Tuning.Measurements == 0 {
			res.failed++
		}
	}
	for _, g := range guided {
		if g.Tuning.Measurements > guidedTopK*g.Tuning.ProfiledWorkloads || g.Module.Time() <= 0 {
			res.failed++
		}
	}
	if rec != nil {
		if c.shared != "" {
			os.Remove(c.shared)
		}
		// Keep the trained shared log for the costmodel and tunelog probes.
		c.shared = filepath.Join(c.dir, "shared.json")
		if err := os.Rename(shared, c.shared); err != nil {
			return res, err
		}
		c.cold, c.guided, c.warm = cold, guided, warm
	}
	return res, nil
}

func (c *compileZoo) probes(layer map[string]float64, rec *recorder) error {
	var coldSim, guidedSim, throughput []float64
	var meas, enumerated, skipped, hits, unique, kernels, launches, templated float64
	for _, m := range c.zoo {
		r := c.cold[m.name]
		coldSim = append(coldSim, r.TuningTime.Seconds())
		throughput = append(throughput, r.Module.Throughput(1))
		meas += float64(r.Tuning.Measurements)
		enumerated += float64(r.Tuning.EnumeratedCandidates)
		kernels += float64(len(r.Module.Kernels))
		launches += float64(r.Module.LaunchCount())
		templated += float64(r.Module.TemplatedKernels())
	}
	var guidedMeas, predErr []float64
	for _, r := range c.guided {
		guidedSim = append(guidedSim, r.TuningTime.Seconds())
		guidedMeas = append(guidedMeas, float64(r.Tuning.Measurements))
		enumerated += float64(r.Tuning.EnumeratedCandidates)
		skipped += float64(r.Tuning.SkippedCandidates)
		if r.Tuning.PredictionError >= 0 {
			predErr = append(predErr, r.Tuning.PredictionError)
		}
	}
	for _, r := range c.warm {
		hits += float64(r.Tuning.CacheHits)
		unique += float64(r.Tuning.UniqueWorkloads)
	}
	layer["codegen.sim_tuning_s"] = sum(coldSim)
	layer["codegen.sim_tuning_guided_s"] = sum(guidedSim)
	layer["codegen.sim_model_img_per_s"] = geomean(throughput)
	layer["codegen.kernels"] = kernels
	layer["codegen.launches"] = launches
	layer["codegen.templated_kernels"] = templated
	layer["profiler.measurements"] = meas
	layer["profiler.measurements_guided"] = sum(guidedMeas)
	layer["profiler.candidates_enumerated"] = enumerated
	layer["profiler.skipped_share"] = ratio(skipped, enumerated)
	layer["profiler.sim_s_per_measurement"] = ratio(sum(coldSim), meas)
	layer["costmodel.prediction_error"] = ratio(sum(predErr), float64(len(predErr)))
	layer["tunelog.warm_hit_rate"] = ratio(hits, unique)
	layer["models.build_host_ms"] = median(rec.durations("models.build"))
	layer["codegen.compile_cold_host_ms"] = median(append(rec.under("op.compile_cold", "bolt.Compile"), rec.under("op.compile_train", "bolt.Compile")...))
	layer["codegen.compile_guided_host_ms"] = median(rec.under("op.compile_guided", "bolt.Compile"))
	layer["codegen.compile_warm_host_ms"] = median(rec.under("op.compile_warm", "bolt.Compile"))

	// Direct probes. Each times one layer's public entry points on the
	// zoo's own graphs and workloads.
	var p prober
	var optimize, plan, rebatch, profile, kernelNs []float64
	var nodes, sink float64
	seen := make(map[tunelog.Key]bool)
	for _, m := range c.zoo {
		src := m.build()
		rebatch = append(rebatch, p.ms(func() error { _, err := relay.Rebatch(src, 8); return err }))
		optimize = append(optimize, p.ms(func() error { return relay.Optimize(src, c.dev) }))
		plan = append(plan, p.ms(func() error { relay.PlanMemory(src); return nil }))
		nodes += float64(len(src.Nodes))

		prof := profiler.New(c.dev, nil)
		for _, n := range src.Nodes {
			switch n.Op {
			case relay.OpConv2D:
				if k := tunelog.ConvKey(n.Conv, n.DType, c.dev.Name); !seen[k] {
					seen[k] = true
					w := profiler.ConvWorkload{Shape: n.Conv, DType: n.DType}
					profile = append(profile, p.ms(func() error { _, err := prof.ProfileConv(w); return err }))
				}
			case relay.OpDense:
				w := profiler.GemmWorkload{M: n.Inputs[0].Shape[0], N: n.Inputs[1].Shape[1], K: n.Inputs[0].Shape[1], DType: n.DType}
				if k := tunelog.GemmKey(w.M, w.N, w.K, w.DType, c.dev.Name); !seen[k] {
					seen[k] = true
					profile = append(profile, p.ms(func() error { _, err := prof.ProfileGemm(w); return err }))
				}
			}
		}
		mod := c.cold[m.name].Module
		const rounds = 200
		start := time.Now()
		for i := 0; i < rounds; i++ {
			for k := range mod.Kernels {
				if mod.Kernels[k].Launches > 0 {
					sink += c.dev.KernelTime(mod.Kernels[k].Desc)
				}
			}
		}
		kernelNs = append(kernelNs, float64(time.Since(start).Nanoseconds())/float64(rounds*mod.LaunchCount()))
	}
	layer["relay.optimize_host_ms"] = sum(optimize)
	layer["relay.plan_memory_host_ms"] = sum(plan)
	layer["relay.rebatch_host_ms"] = sum(rebatch)
	layer["relay.nodes_after_optimize"] = nodes
	layer["profiler.profile_host_ms"] = sum(profile)
	layer["gpu.kernel_time_host_ns"] = median(kernelNs)

	// The shared log of the latest traced pass: entries of four models
	// and the cost model the guided compiles trained.
	raw, err := os.ReadFile(c.shared)
	if err != nil {
		return err
	}
	var loadMs, saveMs, fitMs []float64
	var log *tunelog.Log
	for i := 0; i < probeRounds; i++ {
		log = tunelog.New()
		loadMs = append(loadMs, p.ms(func() error { return log.Load(bytes.NewReader(raw)) }))
		var saved bytes.Buffer
		saveMs = append(saveMs, p.ms(func() error { return log.Save(&saved) }))
		refit := costmodel.NewPredictor(1)
		refit.Ingest(log.Model)
		fitMs = append(fitMs, p.ms(func() error { refit.Fit(); return nil }))
	}
	layer["tunelog.load_host_ms"] = median(loadMs)
	layer["tunelog.save_host_ms"] = median(saveMs)
	layer["tunelog.bytes"] = float64(len(raw))
	layer["costmodel.fit_host_ms"] = median(fitMs)
	layer["costmodel.confidence"] = log.Model.Confidence()

	if sink <= 0 {
		return fmt.Errorf("kernel-time probe priced nothing")
	}
	return p.err
}

// prober times direct calls into a layer and keeps the first error.
type prober struct{ err error }

// ms runs f once and returns its host time in milliseconds.
func (p *prober) ms(f func() error) float64 {
	start := time.Now()
	if err := f(); err != nil && p.err == nil {
		p.err = err
	}
	return time.Since(start).Seconds() * 1e3
}
