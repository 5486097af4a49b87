// Command benchmark is the repository's two-clock benchmark: it drives
// the public surface (bolt.Compile, Module.Run, bolt.NewServer,
// bolt.NewFleet, bolt.NewTracer) end to end, reports cost on the host
// clock and on the modeled clock, checks every output against an
// independent reference, and in traced runs attributes host time to
// layers from the outside. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// config is what one run is asked to do.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// smoke divides every operation count by 100 and drops the minimum
	// repetition count, so the whole set runs in seconds under go test.
	smoke bool
	// outDir receives tuning-log files and trace.<workload>.json.
	outDir string
	golden *goldenSet
}

// count scales a full-size operation count for smoke runs.
func (c config) count(n int) int {
	if c.smoke {
		return max(n/100, 1)
	}
	return n
}

// state is a workload after set-up: ready to run repetitions.
type state interface {
	// rep runs repetition r (inputs and arrivals seeded seed+r). With a
	// non-nil recorder it wraps its calls into the system in spans.
	rep(r int, rec *recorder) (repResult, error)
	// probes fills the per-layer metrics after the traced repetitions:
	// from their spans and counts, and by timing each layer's public
	// functions directly.
	probes(layer map[string]float64, rec *recorder) error
	close()
}

// workload is one named set of inputs.
type workload struct {
	name  string
	setup func(config) (state, error)
}

var workloads = []workload{
	{"compile_zoo", setupCompileZoo},
	{"run_cnn", setupRunCNN},
	{"run_gemm", setupRunGemm},
	{"serve_sched", setupServeSched},
	{"serve_sched_traced", setupServeSchedTraced},
	{"serve_mixed", setupServeMixed},
	{"fleet_faults", setupFleetFaults},
}

// repResult is what one repetition measured.
type repResult struct {
	ops    int // operations completed: compiles, Run passes, requests
	failed int // errors, refusals, and outputs failing their check
	// seconds is the host time of the measured window and mallocs the
	// heap objects allocated inside it.
	seconds float64
	mallocs uint64
	// opMs is the host time of each operation, in milliseconds.
	opMs []float64
	// simSeconds is the modeled time the repetition's operations took
	// (tuning clock or device makespan) and simOpUs each operation's
	// modeled latency in microseconds.
	simSeconds float64
	simOpUs    []float64
}

// measure runs f as one repetition window: host seconds and heap
// objects allocated. It first collects and returns freed memory to the
// operating system, so every window starts from the heap a fresh
// process would have. compile_zoo builds 550 MB graphs; without this
// its passes take between 2.3 and 6 s depending on which pages the
// previous pass left mapped.
func measure(f func() error) (seconds float64, mallocs uint64, err error) {
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err = f()
	seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return seconds, after.Mallocs - before.Mallocs, err
}

// minReps is the least number of timed repetitions a full run makes,
// however slow the host: a median of fewer is one sample.
const minReps = 3

// A run sets the workload up at least minSetups times, and again until
// setupBudget host seconds or maxSetups set-ups are spent, so that the
// set-ups that take milliseconds are a median of many. setup_s is the
// median.
const (
	minSetups   = 3
	maxSetups   = 12
	setupBudget = 0.6
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one workload: set-up, one discarded warm-up repetition,
// then timed repetitions until cfg.seconds have passed.
func run(w workload, cfg config) (report, error) {
	var setups []float64
	var st state
	for spent := 0.0; len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups); {
		if st != nil {
			st.close()
		}
		// Every set-up starts from the heap of a fresh process, like every
		// window: the second compile_zoo set-up in a process otherwise takes
		// 3.5 times the first, which found its 550 MB already zeroed.
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		if st, err = w.setup(cfg); err != nil {
			return report{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		spent += setups[len(setups)-1]
		if cfg.trace || cfg.smoke {
			break // setup_s is an end-to-end metric; traced runs do not report it
		}
	}
	defer st.close()

	// The warm-up repetition's times are discarded; its operations and
	// their checks count like any others.
	rep := report{Metrics: make(map[string]metricValue)}
	count := func(res repResult) {
		rep.Attempted += res.ops
		rep.Failed += res.failed
	}
	if !cfg.smoke {
		res, err := st.rep(0, nil)
		if err != nil {
			return report{}, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
		count(res)
	}
	var plain, traced []repResult
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	reps := minReps
	if cfg.smoke || cfg.trace {
		reps = 1
	}
	started := time.Now()
	for r := 1; r <= reps || time.Since(started).Seconds() < cfg.seconds; r++ {
		res, err := st.rep(r, nil)
		if err != nil {
			return report{}, fmt.Errorf("%s: repetition %d: %w", w.name, r, err)
		}
		plain = append(plain, res)
		count(res)
		if cfg.trace {
			// Traced and untraced repetitions alternate on the same seed, so
			// their difference is the recorder's cost and nothing else.
			if res, err = st.rep(r, rec); err != nil {
				return report{}, fmt.Errorf("%s: traced repetition %d: %w", w.name, r, err)
			}
			traced = append(traced, res)
			count(res)
		}
	}
	rep.Correct = rep.Failed == 0
	if !cfg.trace {
		values := endToEndValues(plain, median(setups))
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
		return rep, nil
	}

	layer := make(map[string]float64)
	layer["bench.trace_overhead_share"] = 1 - ratio(throughput(traced), throughput(plain))
	layer["bench.spans"] = float64(len(rec.spans))
	if err := st.probes(layer, rec); err != nil {
		return report{}, fmt.Errorf("%s: probes: %w", w.name, err)
	}
	if err := rec.write(filepath.Join(cfg.outDir, "trace."+w.name+".json"), w.name); err != nil {
		return report{}, err
	}
	for _, m := range perLayer {
		rep.Metrics[m.name] = metricValue{layer[m.name], m.unit}
	}
	for name := range layer {
		if _, ok := rep.Metrics[name]; !ok {
			return report{}, fmt.Errorf("%s: per-layer metric %q is not declared", w.name, name)
		}
	}
	return rep, nil
}

// throughput is the better quartile over repetitions of operations per
// host second.
func throughput(reps []repResult) float64 {
	var xs []float64
	for _, r := range reps {
		xs = append(xs, float64(r.ops)/r.seconds)
	}
	return betterQuartile(xs, true)
}

// betterQuartile reduces one value per repetition to the run's value:
// the nearest-rank quartile on the good side (p75 of a rate, p25 of a
// time or a count). On a shared two-core host, interference from
// outside the process only ever slows a repetition or adds pool misses,
// so the good quartile repeats between runs about twice as closely as
// the median, while a change that slows every repetition moves both.
func betterQuartile(xs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return nearestRank(sortedCopy(xs), 75)
	}
	return nearestRank(sortedCopy(xs), 25)
}

// endToEndValues reduces the timed repetitions to the end-to-end
// metrics. Host metrics take the better quartile over repetitions (of
// the repetition's rate, median operation time, allocations per
// operation); modeled throughput is the median over repetitions and
// modeled percentiles pool every repetition.
func endToEndValues(reps []repResult, setupSeconds float64) map[string]float64 {
	var allocs, simRate, opMs, simUs []float64
	for _, r := range reps {
		allocs = append(allocs, float64(r.mallocs)/float64(r.ops))
		simRate = append(simRate, float64(r.ops)/r.simSeconds)
		opMs = append(opMs, median(r.opMs))
		simUs = append(simUs, r.simOpUs...)
	}
	simSorted := sortedCopy(simUs)
	return map[string]float64{
		"setup_s":        setupSeconds,
		"host_ops_per_s": throughput(reps),
		"host_op_ms_p50": betterQuartile(opMs, false),
		"allocs_per_op":  betterQuartile(allocs, false),
		"sim_ops_per_s":  median(simRate),
		"sim_lat_us_p50": nearestRank(simSorted, 50),
		"sim_lat_us_p99": nearestRank(simSorted, 99),
	}
}

func find(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var cfg config
	name := flag.String("workload", "all", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", goldenSeed, "seed for inputs, arrivals and the priority pattern")
	flag.Float64Var(&cfg.seconds, "seconds", 8, "host seconds of timed repetitions per workload")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics and writing trace.<workload>.json")
	flag.BoolVar(&cfg.smoke, "smoke", false, "1/100 of every count, one repetition (for go test)")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/out", "directory for tuning logs and trace files")
	selfcheck := flag.Bool("selfcheck", false, "run the set twice and compare every end-to-end metric with its bound")
	update := flag.String("update-golden", "", "write this run's output digests to the named golden.json (default seed only)")
	printSpec := flag.Bool("spec", false, "print BENCHMARK.json as the code defines it and exit")
	flag.Parse()
	cfg.trace = *trace != 0
	if cfg.smoke {
		cfg.seconds = 0 // one repetition, whatever -seconds says
	}
	if *printSpec {
		doc, err := json.MarshalIndent(spec(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(doc))
		return
	}
	if *update != "" && cfg.seed != goldenSeed {
		fatal(fmt.Errorf("golden digests are recorded at seed %d only", goldenSeed))
	}
	var err error
	if cfg.golden, err = loadGolden(*update != ""); err != nil {
		fatal(err)
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	selected := workloads
	if *name != "all" {
		w, ok := find(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}
	if *selfcheck {
		if !selfCheck(selected, cfg) {
			os.Exit(1)
		}
		return
	}
	for _, w := range selected {
		rep, err := run(w, cfg)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fatal(err)
		}
		if len(selected) > 1 {
			fmt.Printf("workload %s\n", w.name)
		}
		fmt.Println(string(line))
	}
	if *update != "" {
		if err := cfg.golden.write(*update); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
