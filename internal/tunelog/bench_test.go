package tunelog_test

import (
	"bytes"
	"testing"

	"bolt/internal/tunelog"
)

// BenchmarkLogSaveLoad saves and reloads the log one cold ResNet-50
// compile leaves behind: its entries and the cost model its
// measurements trained. /save is one Save, /load one Load of its bytes
// into a new log.
func BenchmarkLogSaveLoad(b *testing.B) {
	log := resnet50Log(b)
	var file bytes.Buffer
	if err := log.Save(&file); err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		var w bytes.Buffer
		b.ReportAllocs()
		for b.Loop() {
			w.Reset()
			if err := log.Save(&w); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(w.Len()), "file-bytes")
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := tunelog.New().Load(bytes.NewReader(file.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}
