package tunelog

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// fileLocks holds one mutex per absolute file path, so that the
// Persists of every log opened from one file take turns.
var fileLocks sync.Map // string → *sync.Mutex

// Open reads the tuning log at path. A missing file gives an empty log,
// which its first Persist creates. An empty path gives an empty log
// that no file holds: its Persist writes nothing.
func Open(path string) (*Log, error) {
	l := New()
	if path == "" {
		return l, nil
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		return nil, fmt.Errorf("tunelog: %w", err)
	}
	lock, _ := fileLocks.LoadOrStore(abs, new(sync.Mutex))
	l.path, l.lock = path, lock.(*sync.Mutex)
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return l, nil
	}
	if err != nil {
		return nil, fmt.Errorf("tunelog: %w", err)
	}
	if err := l.ingest(buf, false); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	l.sum = sha256.Sum256(buf)
	l.saved(l.edits, l.Model.Len())
	return l, nil
}

// Persist writes the log back to the file Open read, unless the log is
// clean or has no file, as the package doc's Files section describes (a
// file that does not decode is overwritten). The log is clean only once
// the rename succeeded, so the next Persist retries a failed one.
func (l *Log) Persist() error {
	if l.path == "" {
		return nil
	}
	l.lock.Lock()
	defer l.lock.Unlock()
	if !l.dirty() {
		return nil
	}
	if buf, err := os.ReadFile(l.path); err == nil && sha256.Sum256(buf) != l.sum {
		_ = l.ingest(buf, true)
	}
	buf, edits, obs, err := l.frame()
	if err != nil {
		return err
	}
	// The temp file has a name of its own, so concurrent writers never
	// rename each other's, and a reader never sees half a file.
	f, err := os.CreateTemp(filepath.Dir(l.path), filepath.Base(l.path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("tunelog: %w", err)
	}
	_, err = f.Write(buf)
	// A temp file is private; the log is as readable as os.WriteFile
	// would have made it.
	if err = errors.Join(err, f.Chmod(0o644), f.Close()); err == nil {
		err = os.Rename(f.Name(), l.path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("tunelog: %w", err)
	}
	l.sum = sha256.Sum256(buf)
	l.saved(edits, obs)
	return nil
}

// saved records what the file holds: the log is clean until its edit
// count or model size moves past these.
func (l *Log) saved(edits, obs int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.savedEdits, l.savedObs = edits, obs
}
