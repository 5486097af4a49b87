package tunelog_test

import (
	"bytes"
	"testing"

	"bolt/internal/codegen"
	"bolt/internal/gpu"
	"bolt/internal/models"
	"bolt/internal/profiler"
	"bolt/internal/tunelog"
)

// BenchmarkLogSaveLoad saves and reloads the log one cold ResNet-50
// compile leaves behind: its entries and the cost model its
// measurements trained. One op is a Save plus a Load into a new log.
func BenchmarkLogSaveLoad(b *testing.B) {
	dev := gpu.T4()
	g := models.ResNet(50, 1)
	log := tunelog.New()
	var clock gpu.Clock
	if _, err := codegen.Build(g, dev, codegen.Options{
		Profiler: profiler.New(dev, &clock), Log: log, Jobs: 2,
	}); err != nil {
		b.Fatal(err)
	}
	if log.Len() == 0 || !log.Model.Trained() {
		b.Fatalf("setup: %d entries, model trained = %v", log.Len(), log.Model.Trained())
	}
	var file bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		file.Reset()
		if err := log.Save(&file); err != nil {
			b.Fatal(err)
		}
		if err := tunelog.New().Load(bytes.NewReader(file.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(file.Len()), "file-bytes")
}
