package tunelog_test

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"bolt/internal/codegen"
	"bolt/internal/costmodel"
	"bolt/internal/gpu"
	"bolt/internal/models"
	"bolt/internal/profiler"
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

// plainObs renders observation lines with every number formatted on
// its own, as Save did before it memoized them. Groups must need no
// escape.
func plainObs(obs []costmodel.Observation) []byte {
	var b []byte
	for i, o := range obs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n{\"g\":\""+o.Group+"\",\"f\":["...)
		for j, f := range o.Feat {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, f, 'g', -1, 64)
		}
		b = append(b, `],"y":`...)
		b = strconv.AppendFloat(b, o.Y, 'g', -1, 64)
		b = append(b, '}')
	}
	return b
}

// TestEncodeMatchesUnmemoized checks the observation lines Save writes
// against each number formatted on its own: on a trained ResNet-50 log,
// and on rows that put -0 and 0 in one column and hold subnormals.
func TestEncodeMatchesUnmemoized(t *testing.T) {
	edge := tunelog.New()
	tiny := math.SmallestNonzeroFloat64
	for i, row := range [][]float64{
		{1, 0, tiny, 0.1},
		{1, math.Copysign(0, -1), -tiny, 0.1},
		{1, 0, 2.2250738585072009e-308, math.Copysign(0, -1)},
		{1, math.Copysign(0, -1), tiny, 0},
		{1, 0, -2.2250738585072009e-308, -0.1},
	} {
		y := []float64{0, math.Copysign(0, -1), tiny, -tiny, 1e-310}[i]
		edge.Model.Observe("edge", row, y)
	}
	for name, l := range map[string]*tunelog.Log{"ResNet-50": resnet50Log(t), "signed zeros and subnormals": edge} {
		var file bytes.Buffer
		if err := l.Save(&file); err != nil {
			t.Fatal(err)
		}
		_, obs, ok := bytes.Cut(file.Bytes(), []byte(`,"obs":[`))
		if obs, ok = bytes.CutSuffix(obs, []byte("\n]}}\n")); !ok {
			t.Fatalf("%s: no observation list in\n%s", name, file.Bytes())
		}
		if want := plainObs(l.Model.State().Obs); !bytes.Equal(obs, want) {
			t.Errorf("%s: Save wrote\n%s\nformatting each number gives\n%s", name, obs, want)
		}
	}
}
