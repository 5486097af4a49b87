package main

// This file is the benchmark's contract in code. BENCHMARK.json at the
// repository root is generated from it (go run . -spec) and a test
// keeps the two equal.

// runSeconds is how long one run measures.
const runSeconds = 8

type metricSpec struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is rejected (end-to-end only).
	bound float64
}

// Units tell the two clocks apart: s, ms, us, ns and 1/s are host
// time; sim_s, sim_us and 1/sim_s are modeled time. Each bound is at
// least three times the widest spread (interquartile range over median
// of ten runs at ten seeds) the metric showed on any workload when the
// benchmark was written; README.md has the table.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"host_ops_per_s", "1/s", "higher", 0.20},
	{"host_op_ms_p50", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"sim_ops_per_s", "1/sim_s", "higher", 0.02},
	{"sim_lat_us_p50", "sim_us", "lower", 0.12},
	{"sim_lat_us_p99", "sim_us", "lower", 0.25},
}

var workloadWhy = map[string]string{
	"compile_zoo":        "paper's tuning story: 12 bolt.Compile per pass over ResNet-18/50, VGG-16, RepVGG-A0 @224 b1 on T4 (4 cold, 1 train + 3 TopK=8 guided, 4 warm); relay, profiler, costmodel, tunelog, codegen do the work",
	"run_cnn":            "paper's inference story: Module.Run of ResNet-18 and RepVGG-A0 @64 b1 (logits), one caller, 4 pairs/rep; cutlass Conv2D is ~87% of host time, so a conv kernel change must show here",
	"run_gemm":           "Module.Run of BERT-FFN 8x768x3072 FP16, 32 runs/rep; cutlass Gemm does the work and Conv none: the bypass for conv changes and the guard for a shared micro-kernel",
	"serve_sched":        "scheduler cost per request: 16x16 Dense no-op tenant, buckets 1-8, continuous+padding, 2 workers, 250k req/rep, 1 client x 64 outstanding, mean sim gap 0.54us (0.6 of capacity); kernels do ~nothing",
	"serve_sched_traced": "serve_sched with ServerOptions.Trace set and ExportJSON checked, 120k req/rep, same 0.54us gap and 1x64 client: span emission on the hot path; its rate against serve_sched's is the tracing overhead",
	"serve_mixed":        "realistic server: T4+A100, servenet-8x32 (adaptive) + mlp-256 (strict), 1/8 high 2/8 bulk 5/8 normal, 1200 req/rep, 1x64 client, mean sim gap 2.15us (0.8 of capacity); kernels and scheduler matter",
	"fleet_faults":       "bolt.NewFleet 3x1 workers, no-op tenant, 50ms hedge timeout, a lone request killed and retried every 2500, one Grow per rep, 125k req/rep, 1x64 client, sim gap 1.25us (0.4 of capacity); router, watch",
}

// Per-layer metrics are named layer.metric after the repository's
// packages. A workload that does not exercise or probe a layer reports
// 0 for its metrics.
var perLayer = []metricSpec{
	{name: "bench.trace_overhead_share", unit: "share", better: "lower"},
	{name: "bench.spans", unit: "count", better: "higher"},

	{name: "relay.optimize_host_ms", unit: "ms", better: "lower"},
	{name: "relay.plan_memory_host_ms", unit: "ms", better: "lower"},
	{name: "relay.rebatch_host_ms", unit: "ms", better: "lower"},
	{name: "relay.nodes_after_optimize", unit: "count", better: "lower"},
	{name: "relay.arena_reuse_x", unit: "x", better: "higher"},

	{name: "profiler.profile_host_ms", unit: "ms", better: "lower"},
	{name: "profiler.measurements", unit: "count", better: "lower"},
	{name: "profiler.measurements_guided", unit: "count", better: "lower"},
	{name: "profiler.candidates_enumerated", unit: "count", better: "lower"},
	{name: "profiler.skipped_share", unit: "share", better: "higher"},
	{name: "profiler.sim_s_per_measurement", unit: "sim_s", better: "lower"},

	{name: "costmodel.fit_host_ms", unit: "ms", better: "lower"},
	{name: "costmodel.confidence", unit: "share", better: "higher"},
	{name: "costmodel.prediction_error", unit: "share", better: "lower"},

	{name: "tunelog.save_host_ms", unit: "ms", better: "lower"},
	{name: "tunelog.load_host_ms", unit: "ms", better: "lower"},
	{name: "tunelog.bytes", unit: "B", better: "lower"},
	{name: "tunelog.warm_hit_rate", unit: "share", better: "higher"},

	{name: "codegen.compile_cold_host_ms", unit: "ms", better: "lower"},
	{name: "codegen.compile_guided_host_ms", unit: "ms", better: "lower"},
	{name: "codegen.compile_warm_host_ms", unit: "ms", better: "lower"},
	{name: "codegen.kernels", unit: "count", better: "lower"},
	{name: "codegen.launches", unit: "count", better: "lower"},
	{name: "codegen.templated_kernels", unit: "count", better: "higher"},
	{name: "codegen.sim_tuning_s", unit: "sim_s", better: "lower"},
	{name: "codegen.sim_tuning_guided_s", unit: "sim_s", better: "lower"},
	{name: "codegen.sim_model_img_per_s", unit: "img/sim_s", better: "higher"},

	{name: "models.build_host_ms", unit: "ms", better: "lower"},
	{name: "gpu.kernel_time_host_ns", unit: "ns", better: "lower"},

	{name: "cutlass.conv_host_ms", unit: "ms", better: "lower"},
	{name: "cutlass.gemm_host_ms", unit: "ms", better: "lower"},
	{name: "cutlass.conv_gflops_host", unit: "GFLOP/s", better: "higher"},
	{name: "cutlass.gemm_gflops_host", unit: "GFLOP/s", better: "higher"},
	{name: "cutlass.conv_share_of_run", unit: "share", better: "lower"},
	{name: "persistent.fused_kernels", unit: "count", better: "higher"},

	{name: "rt.run_host_ms_p50", unit: "ms", better: "lower"},
	{name: "rt.run_host_ms_p90", unit: "ms", better: "lower"},
	{name: "rt.self_host_ms", unit: "ms", better: "lower"},
	{name: "rt.run_unplanned_host_ms", unit: "ms", better: "lower"},
	{name: "rt.allocs_per_run", unit: "count", better: "lower"},
	{name: "rt.bytes_per_run", unit: "B", better: "lower"},

	{name: "tensor.stack_slice_host_us", unit: "us", better: "lower"},
	{name: "tensor.pad_strip_host_us", unit: "us", better: "lower"},
	{name: "accuracy.gate_host_ms", unit: "ms", better: "lower"},
	{name: "accuracy.int8_divergence", unit: "share", better: "lower"},

	{name: "serve.enqueue_host_us_p50", unit: "us", better: "lower"},
	{name: "serve.enqueue_host_us_p99", unit: "us", better: "lower"},
	{name: "serve.host_lat_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.host_lat_ms_p99", unit: "ms", better: "lower"},
	{name: "serve.stats_host_us", unit: "us", better: "lower"},
	{name: "serve.snapshot_host_us", unit: "us", better: "lower"},
	{name: "serve.warm_host_ms", unit: "ms", better: "lower"},
	{name: "serve.batches", unit: "count", better: "lower"},
	{name: "serve.mean_batch_rows", unit: "count", better: "higher"},
	{name: "serve.padded_rows_share", unit: "share", better: "lower"},
	{name: "serve.evictions", unit: "count", better: "lower"},
	{name: "serve.worker_util_min_share", unit: "share", better: "higher"},
	{name: "serve.sim_queue_wait_us_p50", unit: "sim_us", better: "lower"},
	{name: "serve.sim_queue_wait_us_p99", unit: "sim_us", better: "lower"},
	{name: "serve.sim_execute_us_p50", unit: "sim_us", better: "lower"},
	{name: "serve.sim_high_lat_us_p99", unit: "sim_us", better: "lower"},
	{name: "serve.sim_normal_lat_us_p99", unit: "sim_us", better: "lower"},
	{name: "serve.sim_bulk_lat_us_p99", unit: "sim_us", better: "lower"},
	{name: "serve.sim_lat_us_p99_r50", unit: "sim_us", better: "lower"},
	{name: "serve.sim_lat_us_p99_r95", unit: "sim_us", better: "lower"},

	{name: "fleet.route_host_us_p50", unit: "us", better: "lower"},
	{name: "fleet.route_host_us_p99", unit: "us", better: "lower"},
	{name: "fleet.grow_host_ms", unit: "ms", better: "lower"},
	{name: "fleet.grow_measurements", unit: "count", better: "lower"},
	{name: "fleet.retries", unit: "count", better: "lower"},
	{name: "fleet.hedges_issued", unit: "count", better: "lower"},
	{name: "fleet.hedges_won", unit: "count", better: "higher"},
	{name: "fleet.hedge_waste_share", unit: "share", better: "lower"},
	{name: "fleet.replica_imbalance_x", unit: "x", better: "lower"},
	{name: "fleet.server_over_fleet_x", unit: "x", better: "lower"},

	{name: "obs.spans", unit: "count", better: "higher"},
	{name: "obs.dropped_share", unit: "share", better: "lower"},
	{name: "obs.export_host_ms", unit: "ms", better: "lower"},
	{name: "obs.export_bytes", unit: "B", better: "lower"},
	{name: "obs.overhead_x", unit: "x", better: "lower"},
}

// benchmarkJSON is the document BENCHMARK.json holds.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricJSON   `json:"end_to_end"`
	PerLayer   []metricJSON   `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func spec() benchmarkJSON {
	doc := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, workloadWhy[w.name]})
	}
	for _, m := range endToEnd {
		bound := m.bound
		doc.EndToEnd = append(doc.EndToEnd, metricJSON{m.name, m.unit, m.better, &bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metricJSON{Name: m.name, Unit: m.unit, Better: m.better})
	}
	return doc
}
