package journal

import (
	"errors"
	"fmt"
	"path/filepath"
)

// compactBytes is the journal size past which NeedsCompact reports
// true, so replayed history stays bounded.
const compactBytes = 4 << 20

// Replay is what Open recovered from an existing journal file.
type Replay struct {
	// Records is the valid record prefix, in append order.
	Records []Record
	// TruncatedBytes counts the bytes of torn or corrupt tail that were
	// quarantined to the .corrupt sidecar; zero on a clean journal.
	TruncatedBytes int
}

// walName is the journal file name inside the state directory.
const walName = "journal.wal"

// ErrClosed is returned by Append on a closed (or never-opened) journal.
var ErrClosed = errors.New("journal: closed")

// Journal is the write-ahead log.  One goroutine-safe appender; open it
// with Open, which also replays whatever a previous process left behind.
type Journal struct {
	// Fields set at Open, immutable afterwards.
	fs   FS
	path string
	// maxBytes is compactBytes; tests lower it to force compaction.
	maxBytes int64

	// Mutable state, guarded by the serve.Server's own mutex in
	// production (appends must interleave in transition order) and
	// internally consistent regardless.
	f       File
	bytes   int64
	records int64
}

// Stats is a gauge snapshot for /healthz.
type Stats struct {
	// Records and Bytes size the live journal file.
	Records, Bytes int64
}

// Open replays dir's journal and returns the journal ready for appends
// plus the replayed records.  A torn or corrupt tail is appended to the
// journal.wal.corrupt sidecar and the valid prefix rewritten atomically,
// so corruption truncates history instead of aborting boot; only real
// I/O failures return an error.
func Open(fsys FS, dir string) (*Journal, *Replay, error) {
	if fsys == nil {
		fsys = OS()
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, walName)
	data, err := fsys.ReadFile(path)
	if err != nil && !notExist(err) {
		return nil, nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	recs, good := decodeAll(data)
	rep := &Replay{Records: recs}
	if good < len(data) {
		rep.TruncatedBytes = len(data) - good
		if err := appendFile(fsys, path+".corrupt", data[good:]); err != nil {
			return nil, nil, fmt.Errorf("journal: quarantine corrupt tail: %w", err)
		}
		if err := writeFileAtomic(fsys, path, data[:good]); err != nil {
			return nil, nil, fmt.Errorf("journal: truncate to valid prefix: %w", err)
		}
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	return &Journal{
		fs: fsys, path: path, maxBytes: compactBytes,
		f: f, bytes: int64(good), records: int64(len(recs)),
	}, rep, nil
}

// Append frames rec, writes it in a single O_APPEND write and fsyncs
// it, so an appended record survives any crash.  Any error leaves the
// journal in an unknown state on disk (a torn frame is possible); the
// caller must stop using it — recovery will truncate the torn tail on
// the next boot.
func (j *Journal) Append(rec Record) error {
	frame, err := Encode(rec)
	if err != nil {
		return err
	}
	if j.f == nil {
		return ErrClosed
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.bytes += int64(len(frame))
	j.records++
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// NeedsCompact reports whether the journal has outgrown its size
// threshold and should be rewritten from a live-state snapshot.
func (j *Journal) NeedsCompact() bool { return j.bytes > j.maxBytes }

// Compact atomically replaces the journal with the snapshot records:
// the new file is written beside the old one, fsynced, renamed into
// place, and the directory fsynced, then the append handle reopened.
// A crash at any point leaves either the old journal or the new one.
func (j *Journal) Compact(recs []Record) error {
	data, err := EncodeAll(recs)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(j.fs, j.path, data); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	// The old handle now points at the unlinked previous file; its close
	// error cannot lose data that the rename did not already supersede,
	// but it is still surfaced.
	var cerr error
	if j.f != nil {
		cerr = j.f.Close()
	}
	f, err := j.fs.OpenAppend(j.path)
	if err != nil {
		j.f = nil
		return fmt.Errorf("journal: reopen after compact: %w", err)
	}
	j.f = f
	j.bytes = int64(len(data))
	j.records = int64(len(recs))
	if cerr != nil {
		return fmt.Errorf("journal: close pre-compact handle: %w", cerr)
	}
	return nil
}

// Close syncs and releases the journal; further Appends return
// ErrClosed.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	serr := j.f.Sync()
	cerr := j.f.Close()
	j.f = nil
	if serr != nil {
		return fmt.Errorf("journal: sync on close: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("journal: close: %w", cerr)
	}
	return nil
}

// Stats returns the current gauges.
func (j *Journal) Stats() Stats {
	return Stats{Records: j.records, Bytes: j.bytes}
}
