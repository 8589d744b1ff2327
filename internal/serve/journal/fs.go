// Package journal is the daemon's crash-safe durability layer: a
// write-ahead job journal plus a persistent result store, both built on
// a small filesystem seam so the chaos suite can inject torn writes,
// short reads, ENOSPC, and checksum corruption (DESIGN.md §12).
//
// The journal records every job state transition as one length-prefixed,
// CRC-checksummed JSON record appended to <dir>/journal.wal through a
// single O_APPEND handle, fsynced on every append, and
// compacted to a live-state snapshot once it grows past a size
// threshold.  The result store writes each completed result to
// <dir>/results/<hash>.json via temp file + fsync + atomic rename, with
// the checksum verified again on load.  Corruption never aborts a boot:
// a torn or corrupt journal tail is quarantined to a .corrupt sidecar
// and the valid prefix replayed; a corrupt result file is renamed aside
// and its job simply re-executed (the runner is seed-deterministic, so
// the rerun is byte-identical).
//
// Nothing in this package reads the wall clock or the global rand
// source: record order is the only notion of time, which keeps recovery
// a pure function of the bytes on disk.
package journal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the journal writes through.
type File interface {
	io.Writer
	// Sync flushes the file to stable storage.
	Sync() error
	// Close releases the handle, flushing any buffered writes.
	Close() error
}

// FS abstracts the filesystem operations the durability layer performs,
// so tests can inject faults (see FaultFS).  OS() is the production
// implementation.
type FS interface {
	// MkdirAll creates dir and its parents.
	MkdirAll(dir string) error
	// OpenAppend opens path for appending, creating it if absent.
	OpenAppend(path string) (File, error)
	// Create opens path truncated for writing, creating it if absent.
	Create(path string) (File, error)
	// ReadFile returns the full contents of path.
	ReadFile(path string) ([]byte, error)
	// ReadDir returns the sorted entry names of dir.
	ReadDir(dir string) ([]string, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// SyncDir fsyncs the directory itself, making a preceding rename or
	// create durable.
	SyncDir(dir string) error
}

// osFS is the production FS over package os.
type osFS struct{}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
}

func (osFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := f.Sync()
	cerr := f.Close()
	if serr != nil {
		return fmt.Errorf("sync dir %s: %w", dir, serr)
	}
	if cerr != nil {
		return fmt.Errorf("close dir %s: %w", dir, cerr)
	}
	return nil
}

// notExist reports whether err means the file is absent — the one read
// error recovery treats as a clean empty state rather than a fault.
func notExist(err error) bool { return errors.Is(err, os.ErrNotExist) }

// writeFileAtomic writes data to path via temp file + fsync + rename +
// directory fsync, so a crash at any point leaves either the old file or
// the new one, never a torn mix.
func writeFileAtomic(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	var serr error
	if werr == nil {
		serr = f.Sync()
	}
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("write %s: %w", tmp, werr)
	}
	if serr != nil {
		return fmt.Errorf("sync %s: %w", tmp, serr)
	}
	if cerr != nil {
		return fmt.Errorf("close %s: %w", tmp, cerr)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// appendFile appends data to path as one O_APPEND write, then syncs
// and closes the handle, propagating every error.  A single write
// through an O_APPEND handle is atomic with respect to other appenders
// on POSIX filesystems, so a crash can only lose the whole record, never
// interleave or truncate it silently.
func appendFile(fsys FS, path string, data []byte) error {
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	var serr error
	if werr == nil {
		serr = f.Sync()
	}
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("append %s: %w", path, werr)
	}
	if serr != nil {
		return fmt.Errorf("sync %s: %w", path, serr)
	}
	if cerr != nil {
		return fmt.Errorf("close %s: %w", path, cerr)
	}
	return nil
}
