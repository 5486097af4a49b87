package main

import (
	"fmt"
	"math"
	"strings"
)

// exactOn lists the workloads whose modeled metrics are a function of
// the seed alone: two runs must agree on them to the last bit. On the
// serving workloads batch formation depends on host interleaving, so
// modeled latency is compared within its bound like a host metric.
var exactOn = map[string]bool{"compile_zoo": true, "run_cnn": true, "run_gemm": true}

// selfCheck runs the selected workloads twice and prints, per
// end-to-end metric, both values, how much worse the second is than
// the first, and the bound. It reports whether every metric agreed
// within its bound, every exact metric bit for bit, and nothing failed.
func selfCheck(selected []workload, cfg config) bool {
	ok := true
	fmt.Printf("%-20s %-16s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse", "bound")
	for _, w := range selected {
		var runs [2]report
		for i := range runs {
			var err error
			if runs[i], err = run(w, cfg); err != nil {
				fatal(err)
			}
			if runs[i].Failed != 0 {
				fmt.Printf("%-20s run %d: %d of %d operations failed\n", w.name, i, runs[i].Failed, runs[i].Attempted)
				ok = false
			}
		}
		for _, m := range endToEnd {
			a, b := runs[0].Metrics[m.name].Value, runs[1].Metrics[m.name].Value
			worse := (b - a) / a
			if m.better == "higher" {
				worse = (a - b) / a
			}
			verdict := ""
			switch {
			case exactOn[w.name] && strings.HasPrefix(m.name, "sim_"):
				if math.Float64bits(a) != math.Float64bits(b) {
					verdict, ok = "  NOT BIT-EQUAL", false
				}
			case math.Abs(worse) > m.bound:
				// Either run may be the slower one: disagreement in either
				// direction means the metric does not repeat.
				verdict, ok = "  BEYOND BOUND", false
			}
			fmt.Printf("%-20s %-16s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n", w.name, m.name, a, b, 100*worse, 100*m.bound, verdict)
		}
	}
	return ok
}
