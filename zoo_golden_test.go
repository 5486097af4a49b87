package bolt_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bolt"
	"bolt/internal/models"
	"bolt/internal/tunelog"
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

// TestZooGuidedGolden replays the tuning story's shared log on the T4
// at 224x224, batch 1, two profiling jobs: ResNet-50 cold into a fresh
// cache file trains the cost model, then ResNet-18, VGG-16 and
// RepVGG-A0 compile guided (TopK 8) through the same file. It pins each
// compile's simulated tuning time, measurement count and modeled
// latency, and the final model's confidence bit for bit: a change to
// how the log stores or the model derives its data leaves them all.
func TestZooGuidedGolden(t *testing.T) {
	file := filepath.Join(t.TempDir(), "shared.json")
	for _, c := range []struct {
		name         string
		build        func() *bolt.Graph
		topK         int
		tuning       time.Duration
		measurements int
		seconds      float64
	}{
		{"ResNet-50", func() *bolt.Graph { return models.ResNet(50, 1) }, 0, 7*time.Minute + 36347241107, 1290, 0.0010654166609845362},
		{"ResNet-18", func() *bolt.Graph { return models.ResNet(18, 1) }, 8, 3*time.Minute + 20441366545, 64, 0.0004332726801815364},
		{"VGG-16", func() *bolt.Graph { return models.VGG(16, 1) }, 8, 2*time.Minute + 41696882418, 96, 0.001885570041707171},
		{"RepVGG-A0", func() *bolt.Graph { return models.RepVGG("A0", 1, models.RepVGGOptions{}) }, 8, 3*time.Minute + 36602060384, 72, 0.00028989581112385957},
	} {
		res, err := bolt.Compile(c.build(), bolt.T4(), bolt.Options{Jobs: 2, CacheFile: file, TopK: c.topK})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.TuningTime != c.tuning || res.Tuning.Measurements != c.measurements || res.Module.Time() != c.seconds {
			t.Errorf("%s: tuning %v, %d measurements, %v s; want %v, %d, %v s", c.name,
				res.TuningTime, res.Tuning.Measurements, res.Module.Time(), c.tuning, c.measurements, c.seconds)
		}
	}
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log := tunelog.New()
	if err := log.Load(f); err != nil {
		t.Fatal(err)
	}
	if got, want := math.Float64bits(log.Model.Confidence()), uint64(0x3fe715e7df86cad7); got != want {
		t.Errorf("model confidence %v (%#x); want %v (%#x)", math.Float64frombits(got), got, math.Float64frombits(want), want)
	}
}
