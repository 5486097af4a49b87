package tunelog_test

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"bolt/internal/codegen"
	"bolt/internal/costmodel"
	"bolt/internal/gpu"
	"bolt/internal/models"
	"bolt/internal/profiler"
	"bolt/internal/tensor"
	"bolt/internal/tunelog"
)

// resnet50Log returns the log one cold ResNet-50 compile leaves behind:
// its entries and the cost model its measurements trained.
func resnet50Log(tb testing.TB) *tunelog.Log {
	tb.Helper()
	dev := gpu.T4()
	log := tunelog.New()
	var clock gpu.Clock
	if _, err := codegen.Build(models.ResNet(50, 1), dev, codegen.Options{
		Profiler: profiler.New(dev, &clock), Log: log, Jobs: 2,
	}); err != nil {
		tb.Fatal(err)
	}
	if log.Len() == 0 || !log.Model.Trained() {
		tb.Fatalf("setup: %d entries, model trained = %v", log.Len(), log.Model.Trained())
	}
	return log
}

// TestSaveKeepsTargetBits saves and reloads a trained ResNet-50 log,
// and rows whose targets are -0 and 0 and subnormals: the reloaded
// model holds every measurement of the saved one, each target bit for
// bit.
func TestSaveKeepsTargetBits(t *testing.T) {
	edge := tunelog.New()
	tiny := math.SmallestNonzeroFloat64
	w := &costmodel.Workload{Group: "edge", M: 512, N: 3072, K: 768, DType: tensor.FP16, Device: "Tesla T4"}
	cfgs := profiler.New(gpu.T4(), nil).GemmCandidates(profiler.GemmWorkload{M: 512, N: 3072, K: 768, DType: tensor.FP16})
	for i, y := range []float64{0, math.Copysign(0, -1), tiny, -tiny, 1e-310, 2.2250738585072009e-308} {
		edge.Model.Observe(costmodel.Observation{Workload: w, Config: cfgs[0], Y: y})
		edge.Model.Observe(costmodel.Observation{Workload: w, Config: cfgs[i+1], Y: y})
	}
	for name, l := range map[string]*tunelog.Log{"ResNet-50": resnet50Log(t), "signed zeros and subnormals": edge} {
		var file bytes.Buffer
		if err := l.Save(&file); err != nil {
			t.Fatal(err)
		}
		again := tunelog.New()
		if err := again.Load(bytes.NewReader(file.Bytes())); err != nil {
			t.Fatal(err)
		}
		got, want := keys(again.Model.State().Obs), keys(l.Model.State().Obs)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %d rows reloaded as\n%v\nsaved as\n%v", name, len(got), got, want)
		}
	}
}

// keys lists observations as sorted strings, targets as bits.
func keys(obs []costmodel.Observation) []string {
	k := make([]string, len(obs))
	for i, o := range obs {
		k[i] = fmt.Sprintf("%#v %#v %x", *o.Workload, o.Config, math.Float64bits(o.Y))
	}
	slices.Sort(k)
	return k
}
