package bench

import (
	"fmt"
	"time"

	"bolt/internal/codegen"
	"bolt/internal/gpu"
	"bolt/internal/models"
	"bolt/internal/relay"
	"bolt/internal/rt"
)

// e2eModels are the six networks of Figure 10.
func (s *Suite) e2eModels() []struct {
	Name  string
	Build func() *relay.Graph
} {
	b := s.Batch
	return []struct {
		Name  string
		Build func() *relay.Graph
	}{
		{"VGG-16", func() *relay.Graph { return models.VGG(16, b) }},
		{"VGG-19", func() *relay.Graph { return models.VGG(19, b) }},
		{"ResNet-18", func() *relay.Graph { return models.ResNet(18, b) }},
		{"ResNet-50", func() *relay.Graph { return models.ResNet(50, b) }},
		{"RepVGG-A0", func() *relay.Graph { return models.RepVGG("A0", b, models.RepVGGOptions{}) }},
		{"RepVGG-B0", func() *relay.Graph { return models.RepVGG("B0", b, models.RepVGGOptions{}) }},
	}
}

// compileBolt runs the templated recipe on the suite's device and
// returns the module plus its tuning clock.
func (s *Suite) compileBolt(g *relay.Graph) (*rt.Module, *gpu.Clock) {
	m, clock, err := compileOn(g, s.Dev, codegen.Options{})
	if err != nil {
		panic(err)
	}
	return m, clock
}

// compileAnsor runs the baseline recipe on the suite's device and
// returns the module plus its tuner's clock.
func (s *Suite) compileAnsor(g *relay.Graph) (*rt.Module, *gpu.Clock) {
	tuner, clock := s.newAnsor()
	m, err := codegen.Baseline(g, s.Dev, tuner, s.E2ETrialsPerTask)
	if err != nil {
		panic(err)
	}
	return m, clock
}

// e2eResult caches one model's end-to-end measurements so Figure 10a
// and 10b share a single compilation.
type e2eResult struct {
	Name                    string
	BoltImgs, AnsorImgs     float64
	BoltTune, AnsorTune     time.Duration
	BoltLaunch, AnsorLaunch int
}

func (s *Suite) runE2E() []e2eResult {
	if s.e2eCache != nil {
		return s.e2eCache
	}
	var out []e2eResult
	for _, m := range s.e2eModels() {
		bolt, boltClock := s.compileBolt(m.Build())
		ansorMod, ansorClock := s.compileAnsor(m.Build())
		// Scale the baseline's tuning time to the paper's 900
		// trials/task budget when running in quick mode.
		scale := 900.0 / float64(s.E2ETrialsPerTask)
		out = append(out, e2eResult{
			Name:       m.Name,
			BoltImgs:   bolt.Throughput(s.Batch),
			AnsorImgs:  ansorMod.Throughput(s.Batch),
			BoltTune:   boltClock.ElapsedDuration(),
			AnsorTune:  time.Duration(float64(ansorClock.ElapsedDuration()) * scale),
			BoltLaunch: bolt.LaunchCount(), AnsorLaunch: ansorMod.LaunchCount(),
		})
	}
	s.e2eCache = out
	return out
}

// Figure10a reproduces end-to-end inference speed (images/sec, batch
// 32, FP16). Paper shape: Bolt 4.2x on VGG, 1.5x on ResNet, 2.6x on
// RepVGG; 2.8x average.
func (s *Suite) Figure10a() *Table {
	t := &Table{
		ID:      "fig10a",
		Title:   fmt.Sprintf("End-to-end inference speed (images/sec, batch %d, FP16)", s.Batch),
		Columns: []string{"model", "Ansor", "Bolt", "speedup", "launches (Ansor->Bolt)"},
		Notes:   []string{"paper: 4.2x on VGG, 1.5x on ResNet, 2.6x on RepVGG; 2.8x average"},
	}
	for _, r := range s.runE2E() {
		t.AddRow(r.Name, i0(r.AnsorImgs), i0(r.BoltImgs), f2(r.BoltImgs/r.AnsorImgs),
			fmt.Sprintf("%d->%d", r.AnsorLaunch, r.BoltLaunch))
	}
	return t
}

// Figure10b reproduces auto-tuning time. Paper shape: Bolt finishes
// every model within 20 minutes; Ansor averages ~12 hours.
func (s *Suite) Figure10b() *Table {
	t := &Table{
		ID:      "fig10b",
		Title:   "Auto-tuning time (simulated wall clock)",
		Columns: []string{"model", "Ansor", "Bolt"},
		Notes: []string{
			fmt.Sprintf("Ansor budget: 900 trials/task (simulated %d, scaled); Bolt: profiler candidates only", s.E2ETrialsPerTask),
			"paper: Bolt < 20 minutes for every model; Ansor ~12 hours on average",
		},
	}
	for _, r := range s.runE2E() {
		t.AddRow(r.Name, r.AnsorTune.Round(time.Minute).String(), r.BoltTune.Round(time.Second).String())
	}
	return t
}
