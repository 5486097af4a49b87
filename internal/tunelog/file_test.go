package tunelog

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bolt/internal/tensor"
)

// fileKeys opens the log at path and returns its entries.
func fileKeys(t *testing.T, path string) map[Key]Entry {
	t.Helper()
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return l.entries
}

// A Persist that cannot write leaves the log dirty, so the next one
// writes what the failed one could not.
func TestPersistRetriesAFailedWrite(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing")
	path := filepath.Join(dir, "tune.json")
	l, err := Open(path)
	if err != nil || l.Len() != 0 {
		t.Fatalf("opening a file in a missing directory: %d entries, %v", l.Len(), err)
	}
	k := GemmKey(64, 64, 64, tensor.FP16, "T4")
	l.Record(k, Entry{TimeSeconds: 1e-6, Trials: 3})
	if err := l.Persist(); err == nil {
		t.Fatal("a Persist into a missing directory reported no error")
	}
	if !l.dirty() {
		t.Fatal("a failed Persist left the log clean")
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.Persist(); err != nil {
		t.Fatal(err)
	}
	if l.dirty() {
		t.Error("a Persist that wrote the file left the log dirty")
	}
	if got := fileKeys(t, path); len(got) != 1 || got[k].Trials != 3 {
		t.Errorf("the file holds %v, want the one recorded entry", got)
	}
	if tmps, _ := filepath.Glob(path + ".*"); len(tmps) > 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}

// A log with no file persists nothing.
func TestOpenWithoutAPathWritesNothing(t *testing.T) {
	l, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	l.Record(GemmKey(64, 64, 64, tensor.FP16, "T4"), Entry{Trials: 1})
	if err := l.Persist(); err != nil || !l.dirty() {
		t.Errorf("Persist of a log with no file: %v, dirty %v", err, l.dirty())
	}
}

// Logs opened from one file keep each other's entries: a Persist merges
// what another log wrote since this one read the file, and its own entry
// wins a key both hold.
func TestPersistMergesWhatOthersWrote(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.json")
	a, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb, both := GemmKey(1, 1, 1, tensor.FP16, "T4"), GemmKey(2, 2, 2, tensor.FP16, "T4"), GemmKey(3, 3, 3, tensor.FP16, "T4")
	a.Record(ka, Entry{Trials: 1})
	a.Record(both, Entry{Trials: 1})
	if err := a.Persist(); err != nil {
		t.Fatal(err)
	}
	b.Record(kb, Entry{Trials: 2})
	b.Record(both, Entry{Trials: 2})
	if err := b.Persist(); err != nil {
		t.Fatal(err)
	}
	got := fileKeys(t, path)
	if len(got) != 3 || got[ka].Trials != 1 || got[kb].Trials != 2 || got[both].Trials != 2 {
		t.Errorf("after two writers the file holds %v", got)
	}
	// a's next write keeps b's entries, and its own.
	a.Record(GemmKey(4, 4, 4, tensor.FP16, "T4"), Entry{Trials: 1})
	if err := a.Persist(); err != nil {
		t.Fatal(err)
	}
	if got := fileKeys(t, path); len(got) != 4 || got[kb].Trials != 2 || got[both].Trials != 1 {
		t.Errorf("after the first writer's second write the file holds %v", got)
	}
}

// Persists to one file from concurrent logs take turns, so the file
// ends up with every log's entry.
func TestConcurrentPersistsKeepEveryEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.json")
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := Open(path)
			if err == nil {
				l.Record(GemmKey(i+1, 1, 1, tensor.FP16, "T4"), Entry{Trials: i + 1})
				err = l.Persist()
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("writer %d: %v", i, err)
		}
	}
	if got := fileKeys(t, path); len(got) != n {
		t.Errorf("%d concurrent writers left %d entries", n, len(got))
	}
}
