// Command boltbench regenerates every table and figure in the Bolt
// paper's evaluation section on the simulated device.
//
// Usage:
//
//	boltbench                 # all experiments at paper trial budgets
//	boltbench -quick          # reduced tuning budgets (seconds)
//	boltbench -exp fig8a      # one experiment
//	boltbench -list           # list experiment ids
//	boltbench -exp tab4 -trace out.json  # also dump a Perfetto trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bolt/internal/bench"
	"bolt/internal/gpu"
	"bolt/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "use reduced tuning budgets (fast)")
	exp := flag.String("exp", "", "run a single experiment id (see -list)")
	list := flag.Bool("list", false, "list experiment ids")
	ablations := flag.Bool("ablations", false, "run the ablation/extension experiments instead")
	device := flag.String("device", "t4", "device model: t4 or a100")
	trace := flag.String("trace", "", "write the serving experiments' request-lifecycle spans to this file (Chrome trace-event JSON, viewable in Perfetto); the fleet experiment's stall arm lands in <file>.stall.json")
	flag.Parse()

	if *list {
		fmt.Println("paper experiments:")
		for _, id := range bench.IDs() {
			fmt.Printf("  %-14s %s\n", id, bench.Describe(id))
		}
		fmt.Println("ablations and extensions (-ablations):")
		for _, id := range bench.AblationIDs() {
			fmt.Printf("  %-14s %s\n", id, bench.Describe(id))
		}
		return
	}

	var dev *gpu.Device
	switch *device {
	case "t4":
		dev = gpu.T4()
	case "a100":
		dev = gpu.A100()
	default:
		fmt.Fprintf(os.Stderr, "unknown device %q\n", *device)
		os.Exit(2)
	}

	s := bench.NewSuite(dev)
	if *quick {
		s = bench.NewQuickSuite(dev)
	}
	if *trace != "" {
		s.Trace = obs.NewTracer()
		s.StallTrace = obs.NewTracer()
	}
	fmt.Printf("device: %s (%s)  quick=%v\n\n", dev.Name, dev.Arch, *quick)

	regen := func(id string) func() *bench.Table {
		if f := s.ByID(id); f != nil {
			return f
		}
		return s.AblationByID(id)
	}
	ids := bench.IDs()
	if *ablations {
		ids = bench.AblationIDs()
	}
	if *exp != "" {
		if regen(*exp) == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		ids = []string{*exp}
	}
	for _, id := range ids {
		t0 := time.Now()
		table := regen(id)()
		fmt.Println(table.Render())
		fmt.Printf("  [regenerated in %v]\n\n", time.Since(t0).Round(time.Millisecond))
	}

	if *trace != "" {
		writeTrace(*trace, s.Trace)
		if s.StallTrace.Len() > 0 {
			writeTrace(strings.TrimSuffix(*trace, ".json")+".stall.json", s.StallTrace)
		}
	}
}

// writeTrace exports one tracer as Chrome trace-event JSON and reports
// its span count (plus any spans dropped to full ring buffers).
func writeTrace(path string, tr *obs.Tracer) {
	if err := os.WriteFile(path, tr.ExportJSON(), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "write trace %s: %v\n", path, err)
		os.Exit(1)
	}
	msg := fmt.Sprintf("trace: %d spans -> %s", tr.Len(), path)
	if d := tr.Dropped(); d > 0 {
		msg += fmt.Sprintf(" (%d dropped)", d)
	}
	fmt.Println(msg)
}
