package bench

import (
	"fmt"

	"bolt/internal/codegen"
	"bolt/internal/models"
	"bolt/internal/relay"
	"bolt/internal/rt"
	"bolt/internal/tunelog"
)

// ExtensionCompileCache quantifies the concurrent, cache-backed
// compilation pipeline: cold compiles fan unresolved workloads across
// a profiling pool (tuning time = critical path, so it shrinks with
// jobs), and a warm recompile through the persistent tuning log
// measures nothing at all.
func (s *Suite) ExtensionCompileCache() *Table {
	t := &Table{
		ID:      "ext-cache",
		Title:   "Extension: concurrent, cache-backed compilation (RepVGG-A0, batch 8)",
		Columns: []string{"jobs", "cold tune", "warm tune", "unique tasks", "cache hits", "measurements"},
		Notes: []string{
			"cold: empty tuning log; warm: immediate recompile through the same log",
			"tuning time is the profiling pool's critical path (max across workers, not the sum)",
		},
	}
	build := func() *relay.Graph { return models.RepVGG("A0", 8, models.RepVGGOptions{}) }
	compileWithLog := func(log *tunelog.Log, jobs int) rt.TuningStats {
		m, _, err := compileOn(build(), s.Dev, codegen.Options{Log: log, Jobs: jobs})
		if err != nil {
			panic(err)
		}
		return m.Tuning
	}
	for _, jobs := range []int{1, 2, 4, 8} {
		log := tunelog.New()
		cold := compileWithLog(log, jobs)
		warm := compileWithLog(log, jobs)
		t.AddRow(fmt.Sprint(jobs),
			fmt.Sprintf("%.1fs", cold.TuningSeconds),
			fmt.Sprintf("%.1fs", warm.TuningSeconds),
			fmt.Sprint(cold.UniqueWorkloads),
			fmt.Sprintf("%d -> %d", cold.CacheHits, warm.CacheHits),
			fmt.Sprintf("%d -> %d", cold.Measurements, warm.Measurements))
	}
	return t
}
