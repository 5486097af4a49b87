package bolt_test

import (
	"testing"
	"time"

	"bolt"
	"bolt/internal/models"
)

// TestZooModeledGolden pins what each backend makes of the four zoo
// models of Figure 10 at 224x224, batch 1, on the T4: the module's
// modeled latency and launch count, and the simulated tuning time
// (Compile's profiler and CompileBaseline's search at its 900-trial
// default). A change meant to move no number leaves these bit for bit.
func TestZooModeledGolden(t *testing.T) {
	type modeled struct {
		seconds  float64
		launches int
		tuning   time.Duration
	}
	for _, c := range []struct {
		name           string
		build          func() *bolt.Graph
		bolt, baseline modeled
	}{
		{"ResNet-18", func() *bolt.Graph { return models.ResNet(18, 1) },
			modeled{0.00043323424197776487, 40, 3*time.Minute + 39324690872},
			modeled{0.000689789145727899, 40, 6*time.Hour + 54*time.Minute + 1742539186}},
		{"ResNet-50", func() *bolt.Graph { return models.ResNet(50, 1) },
			modeled{0.0010654166609845362, 86, 7*time.Minute + 52899605691},
			modeled{0.0016531653503966612, 89, 13*time.Hour + 48*time.Minute + 4020150221}},
		{"VGG-16", func() *bolt.Graph { return models.VGG(16, 1) },
			modeled{0.0018619625935460524, 22, 3*time.Minute + 2497561772},
			modeled{0.003782899318785525, 22, 6*time.Hour + 54*time.Minute + 16986802920}},
		{"RepVGG-A0", func() *bolt.Graph { return models.RepVGG("A0", 1, models.RepVGGOptions{}) },
			modeled{0.00028989581112385957, 25, 3*time.Minute + 53594922906},
			modeled{0.0006336428223311403, 25, 5*time.Hour + 10*time.Minute + 31063731244}},
	} {
		t.Run(c.name, func(t *testing.T) {
			boltRes, err := bolt.Compile(c.build(), bolt.T4(), bolt.Options{})
			if err != nil {
				t.Fatal(err)
			}
			baseRes, err := bolt.CompileBaseline(c.build(), bolt.T4(), 0)
			if err != nil {
				t.Fatal(err)
			}
			for backend, got := range map[string]struct {
				res  *bolt.CompileResult
				want modeled
			}{"bolt": {boltRes, c.bolt}, "baseline": {baseRes, c.baseline}} {
				m := got.res.Module
				if have := (modeled{m.Time(), m.LaunchCount(), got.res.TuningTime}); have != got.want {
					t.Errorf("%s: %v s, %d launches, tuning %v; want %v s, %d launches, tuning %v",
						backend, have.seconds, have.launches, have.tuning, got.want.seconds, got.want.launches, got.want.tuning)
				}
			}
		})
	}
}
