// The Bolt tuning pipeline: compilation is staged so that nothing
// downstream ever blocks on a measurement it did not need.
//
//  1. workload extraction — walk the optimized graph and collect every
//     GEMM/Conv tuning task;
//  2. dedup + cache lookup — identical workloads collapse to one task,
//     and tasks present in the persistent tuning log (tunelog) skip
//     measurement entirely;
//  3. parallel profiling — unresolved tasks fan out across a worker
//     pool. Each worker owns a gpu.Clock; the pipeline's tuning cost
//     is the pool's critical path (max across workers, not the sum),
//     plus the shared sample-program generation stage, which is
//     compiled once and parallelized across the same workers;
//  4. lowering — consumes resolved configs without measuring anything.
package codegen

import (
	"fmt"
	"sort"
	"sync"

	"bolt/internal/gpu"
	"bolt/internal/profiler"
	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/tunelog"
)

// tuningTask is one unique tuning workload, GEMM or convolution.
type tuningTask struct {
	key tunelog.Key
	w   profiler.Workload
}

// taskKey keys a Dense or Conv2D node's workload for dedup, the tuning
// log and lowering's lookup.
func taskKey(n *relay.Node, dev *gpu.Device) tunelog.Key {
	if n.Op == relay.OpConv2D {
		return tunelog.ConvKey(n.Conv, n.DType, dev.Name)
	}
	w := denseWorkload(n)
	return tunelog.GemmKey(w.M, w.N, w.K, w.DType, dev.Name)
}

// workload reads the tuning problem off a Dense or Conv2D node.
func workload(n *relay.Node) profiler.Workload {
	if n.Op == relay.OpConv2D {
		return profiler.ConvWorkload{Shape: n.Conv, DType: n.DType}
	}
	return denseWorkload(n)
}

// denseWorkload reads the GEMM problem off a Dense node.
func denseWorkload(n *relay.Node) profiler.GemmWorkload {
	x, w := n.Inputs[0], n.Inputs[1]
	return profiler.GemmWorkload{M: x.Shape[0], N: w.Shape[1], K: x.Shape[1], DType: n.DType}
}

// extractWorkloads is stage 1: collect every tuning task in the graph,
// deduplicated in first-appearance order. total counts tasks before
// dedup.
func extractWorkloads(g *relay.Graph, dev *gpu.Device) (unique []tuningTask, total int) {
	seen := make(map[tunelog.Key]bool)
	for _, n := range g.Nodes {
		if n.Op != relay.OpDense && n.Op != relay.OpConv2D {
			continue
		}
		total++
		key := taskKey(n, dev)
		if seen[key] {
			continue
		}
		seen[key] = true
		unique = append(unique, tuningTask{key: key, w: workload(n)})
	}
	return unique, total
}

// guidanceFor resolves the pipeline's guidance: the tuning log's
// persistent model, with TopK and TrustThreshold from Options. An error
// is returned when guided knobs are requested with no log to guide by —
// silently falling back to full sweeps would misreport the run.
func guidanceFor(opts Options) (profiler.Guidance, error) {
	g := profiler.Guidance{TopK: opts.TopK, TrustThreshold: opts.TrustThreshold}
	if opts.Log != nil {
		g.Model = opts.Log.Model
	}
	if (g.TopK > 0 || g.TrustThreshold > 0) && g.Model == nil {
		return profiler.Guidance{}, fmt.Errorf("codegen: guided tuning (TopK=%d, TrustThreshold=%g) needs a cost model: pass a tuning log", g.TopK, g.TrustThreshold)
	}
	return g, nil
}

// cacheUsable reports whether a cached config can actually lower the
// task on this device (a corrupt or foreign entry must fall through to
// profiling rather than produce an unlaunchable kernel).
func cacheUsable(e tunelog.Entry, t tuningTask, dev *gpu.Device) bool {
	return e.Config.Validate(dev) == nil && t.w.Supports(e.Config)
}

// runTuningPipeline executes stages 1-3 and returns the resolved
// config for every tuning task in the graph. It charges the prototype
// profiler's clock with the pipeline's critical-path cost.
func runTuningPipeline(g *relay.Graph, dev *gpu.Device, opts Options) (map[tunelog.Key]profiler.Result, rt.TuningStats, error) {
	proto := opts.Profiler
	stats := rt.TuningStats{PredictionError: -1}

	guide, err := guidanceFor(opts)
	if err != nil {
		return nil, stats, err
	}

	// Stage 1: extraction.
	unique, total := extractWorkloads(g, dev)
	stats.Workloads = total
	stats.UniqueWorkloads = len(unique)

	// Stage 2: cache lookup. Hits skip measurement entirely.
	resolved := make(map[tunelog.Key]profiler.Result, len(unique))
	var pending []tuningTask
	for _, t := range unique {
		if opts.Log != nil {
			if e, ok := opts.Log.Lookup(t.key); ok && cacheUsable(e, t, dev) {
				resolved[t.key] = profiler.Result{Config: e.Config, Time: e.TimeSeconds, Predicted: e.Predicted}
				stats.CacheHits++
				continue
			}
		}
		pending = append(pending, t)
	}
	if len(pending) == 0 {
		return resolved, stats, nil
	}

	// Stage 2.5: planning. Every task's measurement plan is computed
	// upfront against a frozen cost model (Predict uses the last fit;
	// workers only Observe), so the plans — and therefore kernel
	// selection — are independent of pool width and completion order.
	planner := proto.Worker(nil, nil)
	planner.Guide = guide
	plans := make([]profiler.Plan, len(pending))
	for i, t := range pending {
		if plans[i], err = planner.Plan(t.w); err != nil {
			return nil, stats, fmt.Errorf("planning %s: %w", t.key, err)
		}
	}

	// jobs is the requested pool width; the measurement pool below
	// additionally caps it at the task count (a worker without a task
	// contributes nothing), but the sample-program stage parallelizes
	// over the full requested width — nvcc invocations are independent
	// of how many workloads need them.
	jobs := opts.Jobs
	if jobs < 1 {
		jobs = 1
	}
	poolJobs := jobs
	if poolJobs > len(pending) {
		poolJobs = len(pending)
	}

	// Stage 3a: shared sample-program generation — only for templates a
	// plan actually measures. Guidance that prunes a candidate also
	// prunes its nvcc invocation, which is where most of the cold-start
	// cost lives. Templates are compiled once per distinct config, and
	// the invocations are independent, so the stage's cost is the
	// parallel critical path over the worker count.
	distinct := make(map[string]bool)
	var names []string
	for _, pl := range plans {
		for _, cfg := range pl.Measure {
			if name := cfg.Name(); !distinct[name] {
				distinct[name] = true
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	stats.SamplePrograms = len(names)
	batches := (len(names) + jobs - 1) / jobs
	compileSeconds := float64(batches) * proto.CompileLatency

	// Stage 3b: the measurement pool. Tasks are statically partitioned
	// round-robin so the critical path (and therefore the reported
	// tuning time) is deterministic for a given Jobs value. Predicted
	// plans resolve inline first — they measure nothing and charge no
	// clock, so routing them through the pool would only skew the
	// round-robin partition.
	results := make([]profiler.Result, len(pending))
	errs := make([]error, len(pending))
	for i, t := range pending {
		if plans[i].Predicted {
			results[i], errs[i] = planner.ProfilePlan(t.w, plans[i])
		}
	}
	clocks := make([]gpu.Clock, poolJobs)
	var wg sync.WaitGroup
	for w := 0; w < poolJobs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := proto.Worker(&clocks[w], names)
			worker.Guide = guide
			for i := w; i < len(pending); i += poolJobs {
				if plans[i].Predicted {
					continue
				}
				results[i], errs[i] = worker.ProfilePlan(pending[i].w, plans[i])
			}
		}(w)
	}
	wg.Wait()

	// Fold this run's measurements into the model once the pool has
	// drained: the next pipeline (or the next first-use compile in a
	// serving process) plans against everything learned here. The fit
	// waits for that first use, so a compile that only saves the model
	// never runs it.
	if guide.Model != nil {
		guide.Model.DeferFit()
	}

	measureSeconds := 0.0
	for w := range clocks {
		if e := clocks[w].Elapsed(); e > measureSeconds {
			measureSeconds = e
		}
	}
	stats.TuningSeconds = compileSeconds + measureSeconds

	predErrSum, predErrN := 0.0, 0
	for i, t := range pending {
		if errs[i] != nil {
			return nil, stats, fmt.Errorf("profiling %s: %w", t.key, errs[i])
		}
		r := results[i]
		resolved[t.key] = r
		stats.ProfiledWorkloads++
		stats.Measurements += r.Candidates
		stats.EnumeratedCandidates += r.Enumerated
		stats.SkippedCandidates += r.Enumerated - r.Candidates
		if r.Predicted {
			stats.PredictedWorkloads++
		}
		if r.PredictionError >= 0 {
			predErrSum += r.PredictionError
			predErrN++
		}
		if opts.Log != nil {
			opts.Log.Record(t.key, tunelog.Entry{
				Config:      r.Config,
				TimeSeconds: r.Time,
				Trials:      r.Candidates,
				Predicted:   r.Predicted,
			})
		}
	}
	if predErrN > 0 {
		stats.PredictionError = predErrSum / float64(predErrN)
	}

	// Merge the critical path into the caller's tuning clock.
	if c := proto.Clock(); c != nil {
		c.Advance(stats.TuningSeconds)
	}
	return resolved, stats, nil
}
