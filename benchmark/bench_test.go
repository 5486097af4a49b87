package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"bolt"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("nearestRank(p=%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("nearestRank(empty) = %g, want 0", got)
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, high float64
	}{
		{1000, 99, 99},   // exactly ten samples beyond p99
		{999, 99, 95},    // one short
		{100000, 99, 99}, // never above what was asked
		{60, 90, 75},     // six beyond p90, fifteen beyond p75
		{15, 99, 50},     // nothing but the median is supported
		{10000, 99.9, 99.9},
	} {
		if got := supportedPercentile(c.n, c.want); got != c.high {
			t.Errorf("supportedPercentile(n=%d, want=%g) = %g, want %g", c.n, c.want, got, c.high)
		}
	}
}

func TestMedianOfPair(t *testing.T) {
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of a pair = %g, want their mean 3", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %g, want 5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0}, // overlaps a: 10..50 is covered once
		{Name: "c", Start: 60, End: 70, Parent: 0},
		{Name: "late", Start: 90, End: 130, Parent: 0}, // clipped at the parent's end
		{Name: "grandchild", Start: 22, End: 28, Parent: 2},
	}
	want := []int64{100 - 40 - 10 - 10, 20, 30 - 6, 10, 40, 6}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	i := r.begin("x", -1, 0)
	r.end(i)
}

// TestClosedLoopWindow checks the load generator's contract: never more
// than the window outstanding, the window actually filled, and every
// request completed once, in submission order.
func TestClosedLoopWindow(t *testing.T) {
	const n, win = 1000, 64
	outstanding, peak, next := 0, 0, 0
	err := closedLoop(n, win, func(i int) (<-chan int, error) {
		outstanding++
		peak = max(peak, outstanding)
		ch := make(chan int, 1)
		ch <- i
		return ch, nil
	}, func(i, r int, submitted, completed time.Time) {
		outstanding--
		if i != next || r != i {
			t.Fatalf("completion %d delivered as request %d with result %d", next, i, r)
		}
		if completed.Before(submitted) {
			t.Fatalf("request %d completed before it was submitted", i)
		}
		next++
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak != win || outstanding != 0 || next != n {
		t.Errorf("peak outstanding %d (want %d), left %d, completed %d of %d", peak, win, outstanding, next, n)
	}
	// Fewer requests than the window: all of them outstanding at once.
	peak, outstanding = 0, 0
	if err := closedLoop(5, win, func(i int) (<-chan int, error) {
		outstanding++
		peak = max(peak, outstanding)
		ch := make(chan int, 1)
		ch <- i
		return ch, nil
	}, func(int, int, time.Time, time.Time) { outstanding-- }); err != nil || peak != 5 || outstanding != 0 {
		t.Errorf("short run: peak %d, left %d, err %v", peak, outstanding, err)
	}
}

func TestPoissonArrivals(t *testing.T) {
	a, b := poissonArrivals(500, 2e-6, 7), poissonArrivals(500, 2e-6, 7)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different arrivals")
	}
	if reflect.DeepEqual(a, poissonArrivals(500, 2e-6, 8)) {
		t.Error("different seeds gave the same arrivals")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d precedes arrival %d", i, i-1)
		}
	}
	if last, want := a[len(a)-1], 500*2e-6; math.Abs(last-want) > 1e-12 {
		t.Errorf("last arrival %g, want the committed span %g", last, want)
	}
}

func TestInputIndexVisitsEveryInput(t *testing.T) {
	for _, k := range []int{16, 64} {
		seen := make(map[int]bool)
		for i := 0; i < checkEvery*k; i += checkEvery {
			seen[inputIndex(i, k)] = true
		}
		if len(seen) != k {
			t.Errorf("checks at stride %d reach %d of %d inputs", checkEvery, len(seen), k)
		}
	}
}

func TestPriorityPatternMix(t *testing.T) {
	count := make(map[bolt.Priority]int)
	for _, p := range priorityPattern(3) {
		count[p]++
	}
	if count[bolt.PriorityHigh] != 1 || count[bolt.PriorityBulk] != 2 || count[bolt.PriorityNormal] != 5 {
		t.Errorf("class mix %v, want 1 high, 2 bulk, 5 normal", count)
	}
	if priorityPattern(3) != priorityPattern(3) {
		t.Error("pattern is not a function of the seed")
	}
}

// TestSpecMatchesBenchmarkJSON keeps the contract file at the
// repository root equal to the lists the benchmark reports from.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var have benchmarkJSON
	if err := json.Unmarshal(raw, &have); err != nil {
		t.Fatal(err)
	}
	if want := spec(); !reflect.DeepEqual(have, want) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with: go run . -spec > ../BENCHMARK.json")
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[m.name] {
			t.Errorf("metric %q is declared twice", m.name)
		}
		seen[m.name] = true
	}
	for _, w := range workloads {
		if why := workloadWhy[w.name]; why == "" || len(why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.name, len(why))
		}
	}
}

// TestSmoke runs every workload at 1/100 of its counts with the output
// checks on, and two of them traced.
func TestSmoke(t *testing.T) {
	golden, err := loadGolden(false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: goldenSeed, smoke: true, outDir: t.TempDir(), golden: golden}
	for _, w := range workloads {
		start := time.Now()
		rep, err := run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d operations in %v", w.name, rep.Attempted, time.Since(start).Round(time.Millisecond))
		if !rep.Correct || rep.Attempted < 1 || len(rep.Metrics) != len(endToEnd) {
			t.Errorf("%s: correct=%v attempted=%d failed=%d metrics=%d", w.name, rep.Correct, rep.Attempted, rep.Failed, len(rep.Metrics))
		}
		for name, m := range rep.Metrics {
			if !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %g, want a positive number", w.name, name, m.Value)
			}
		}
	}
	cfg.trace = true
	for _, name := range []string{"run_gemm", "fleet_faults"} {
		w, _ := find(name)
		rep, err := run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || len(rep.Metrics) != len(perLayer) {
			t.Errorf("%s traced: correct=%v metrics=%d, want %d", name, rep.Correct, len(rep.Metrics), len(perLayer))
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace."+name+".json")); err != nil {
			t.Error(err)
		}
	}
}
