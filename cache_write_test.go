package bolt_test

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bolt"
	"bolt/internal/models"
	"bolt/internal/tunelog"
)

// fileState is what a rewrite cannot leave alone: saves go through a
// temp file and a rename, so even one that writes identical bytes
// replaces the file and restamps it.
type fileState struct {
	info os.FileInfo
	data []byte
}

// freeze backdates the cache file, so a later write shows whatever the
// filesystem's timestamp granularity, and records its state.
func freeze(t *testing.T, path string) fileState {
	t.Helper()
	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	return stateOf(t, path)
}

func stateOf(t *testing.T, path string) fileState {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fileState{info, data}
}

func (a fileState) untouched(b fileState) bool {
	return os.SameFile(a.info, b.info) && a.info.ModTime().Equal(b.info.ModTime()) && bytes.Equal(a.data, b.data)
}

// TestWarmCompileLeavesCacheFileAlone: a compile that read its whole
// tuning record from the file has nothing to add to it.
func TestWarmCompileLeavesCacheFileAlone(t *testing.T) {
	dev := bolt.T4()
	cache := filepath.Join(t.TempDir(), "tune.json")
	if _, err := bolt.Compile(buildTiny(), dev, bolt.Options{CacheFile: cache}); err != nil {
		t.Fatal(err)
	}
	before := freeze(t, cache)
	warm, err := bolt.Compile(buildTiny(), dev, bolt.Options{CacheFile: cache})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Tuning.Measurements != 0 || warm.Tuning.CacheHits != warm.Tuning.UniqueWorkloads {
		t.Fatalf("setup: second compile was not warm: %+v", warm.Tuning)
	}
	if !before.untouched(stateOf(t, cache)) {
		t.Error("a warm compile rewrote its cache file")
	}

	// A compile that does tune still lands in the file.
	other, err := bolt.Compile(buildTiny1(), dev, bolt.Options{CacheFile: cache})
	if err != nil {
		t.Fatal(err)
	}
	if other.Tuning.Measurements == 0 {
		t.Fatal("setup: a new batch size measured nothing")
	}
	if after := stateOf(t, cache); before.untouched(after) || len(after.data) <= len(before.data) {
		t.Error("a compile that tuned new workloads did not grow its cache file")
	}
}

// TestColdCompileThatTunesNothingStillCreatesItsCache: the file is the
// record that the compile happened, workloads or not.
func TestColdCompileThatTunesNothingStillCreatesItsCache(t *testing.T) {
	b := bolt.NewBuilder()
	x := b.Input("x", bolt.FP16, 4, 32)
	g := b.Build(b.Activation(x, bolt.ReLU))
	cache := filepath.Join(t.TempDir(), "tune.json")
	res, err := bolt.Compile(g, bolt.T4(), bolt.Options{CacheFile: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuning.UniqueWorkloads != 0 || res.Tuning.Measurements != 0 {
		t.Fatalf("setup: a graph without anchors tuned something: %+v", res.Tuning)
	}
	if info, err := os.Stat(cache); err != nil || info.Size() == 0 {
		t.Fatalf("cold compile left no cache file: %v", err)
	}
	// Its second compile is warm in the sense that matters here.
	before := freeze(t, cache)
	g = b.Build(b.Activation(x, bolt.ReLU))
	if _, err := bolt.Compile(g, bolt.T4(), bolt.Options{CacheFile: cache}); err != nil {
		t.Fatal(err)
	}
	if !before.untouched(stateOf(t, cache)) {
		t.Error("recompiling with nothing to tune rewrote the cache file")
	}
}

// TestServerThatWarmsFromItsCacheDoesNotRewriteIt: every variant
// compile persists and so does Close, and none of them has news.
func TestServerThatWarmsFromItsCacheDoesNotRewriteIt(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "tune.json")
	serveOnce := func() {
		t.Helper()
		srv, err := bolt.NewServer(bolt.T4(), bolt.ServerOptions{Workers: 1, Jobs: 2, CacheFile: cache})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Deploy("m", buildTiny1(), bolt.DeployOptions{Buckets: []int{1, 2, 4}}); err != nil {
			t.Fatal(err)
		}
		if err := srv.Warm("m"); err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	serveOnce()
	before := freeze(t, cache)
	if len(before.data) == 0 {
		t.Fatal("first server persisted nothing")
	}
	serveOnce()
	if !before.untouched(stateOf(t, cache)) {
		t.Error("a server whose Warm hit every workload rewrote its cache file")
	}
}

// TestCacheFileBytesAreReproducible: the same compiles into the same
// cache file write the same bytes, wherever the file lives. Two models
// share the file, so it holds both models' entries and a cost model
// trained on both.
func TestCacheFileBytesAreReproducible(t *testing.T) {
	dev := bolt.T4()
	var files [2][]byte
	for i := range files {
		cache := filepath.Join(t.TempDir(), "tune.json")
		for _, g := range []*bolt.Graph{models.ResNet(18, 1), models.RepVGG("A0", 1, models.RepVGGOptions{})} {
			if _, err := bolt.Compile(g, dev, bolt.Options{CacheFile: cache, Jobs: 2}); err != nil {
				t.Fatal(err)
			}
		}
		data, err := os.ReadFile(cache)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("two runs wrote %d and %d bytes that differ", len(files[0]), len(files[1]))
	}
	if !bytes.Contains(files[0], []byte(`"model":{"seed":1,"workloads":[`)) {
		t.Error("the cache file holds no trained cost model")
	}
}

// TestConcurrentCompilesShareACacheFile: compiles that run at once on
// one cache file each save through a temp file of their own, so none
// fails on another's rename, and each merges what the others saved
// before it, so the file left behind holds every entry a sequential run
// of the same compiles leaves.
func TestConcurrentCompilesShareACacheFile(t *testing.T) {
	graphs := func() []*bolt.Graph {
		return []*bolt.Graph{models.ResNet(18, 1), models.ResNet(50, 1), models.VGG(16, 1), models.RepVGG("A0", 1, models.RepVGGOptions{})}
	}
	sequential := filepath.Join(t.TempDir(), "tune.json")
	for _, g := range graphs() {
		if _, err := bolt.Compile(g, bolt.T4(), bolt.Options{CacheFile: sequential, Jobs: 2}); err != nil {
			t.Fatal(err)
		}
	}

	cache := filepath.Join(t.TempDir(), "tune.json")
	gs := graphs()
	errs := make([]error, len(gs))
	var wg sync.WaitGroup
	for i, g := range gs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = bolt.Compile(g, bolt.T4(), bolt.Options{CacheFile: cache, Jobs: 2})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("compile %d: %v", i, err)
		}
	}
	f, err := os.Open(cache)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log := tunelog.New()
	if err := log.Load(f); err != nil || log.Len() == 0 {
		t.Fatalf("the cache file loads %d entries: %v", log.Len(), err)
	}
	if tmps, _ := filepath.Glob(cache + ".*"); len(tmps) > 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
	want, got := entryKeys(t, sequential), entryKeys(t, cache)
	if !maps.Equal(got, want) {
		t.Errorf("concurrent compiles left %d entries, a sequential run %d; the key sets differ", len(got), len(want))
	}
}

// entryKeys reads the keys of a cache file's entries.
func entryKeys(t *testing.T, path string) map[tunelog.Key]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Entries []struct{ Key tunelog.Key } }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	keys := make(map[tunelog.Key]bool)
	for _, e := range doc.Entries {
		keys[e.Key] = true
	}
	return keys
}
