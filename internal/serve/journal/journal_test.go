package journal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rec builds a small admitted-style record for tests.
func rec(seq int, id string) Record {
	return Record{Kind: KindAdmitted, Seq: seq, JobID: id, Hash: strings.Repeat("a", 8), Crit: "normal"}
}

func openOrFatal(t *testing.T, fsys FS, dir string) (*Journal, *Replay) {
	t.Helper()
	j, rep, err := Open(fsys, dir)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	return j, rep
}

func closeOrFatal(t *testing.T, j *Journal) {
	t.Helper()
	if err := j.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}
}

func TestAppendAndReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rep := openOrFatal(t, nil, dir)
	if len(rep.Records) != 0 || rep.TruncatedBytes != 0 {
		t.Fatalf("fresh journal replayed %+v", rep)
	}
	want := []Record{
		rec(1, "j1-aa"),
		{Kind: KindRunning, JobID: "j1-aa"},
		{Kind: KindAttempt, JobID: "j1-aa", Attempt: json.RawMessage(`{"attempt":1,"error":"x"}`)},
		{Kind: "done", JobID: "j1-aa"},
		rec(2, "j2-bb"),
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	st := j.Stats()
	if st.Records != int64(len(want)) || st.Bytes == 0 {
		t.Fatalf("stats %+v", st)
	}
	closeOrFatal(t, j)

	j2, rep2 := openOrFatal(t, nil, dir)
	defer closeOrFatal(t, j2)
	if len(rep2.Records) != len(want) || rep2.TruncatedBytes != 0 {
		t.Fatalf("replay %d records (truncated %d), want %d", len(rep2.Records), rep2.TruncatedBytes, len(want))
	}
	for i, r := range rep2.Records {
		got, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(exp) {
			t.Errorf("record %d: %s != %s", i, got, exp)
		}
	}
}

func TestTornTailIsQuarantinedAndTruncated(t *testing.T) {
	dir := t.TempDir()
	j, _ := openOrFatal(t, nil, dir)
	for i := 1; i <= 3; i++ {
		if err := j.Append(rec(i, "j")); err != nil {
			t.Fatal(err)
		}
	}
	closeOrFatal(t, j)

	// A crash mid-append: garbage trailing bytes after the valid frames.
	wal := filepath.Join(dir, walName)
	if err := appendFile(OS(), wal, []byte{0x07, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}

	j2, rep := openOrFatal(t, nil, dir)
	defer closeOrFatal(t, j2)
	if len(rep.Records) != 3 {
		t.Fatalf("replayed %d records, want 3", len(rep.Records))
	}
	if rep.TruncatedBytes != 6 {
		t.Fatalf("truncated %d bytes, want 6", rep.TruncatedBytes)
	}
	after, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)-6 {
		t.Errorf("wal not truncated: %d -> %d bytes", len(before), len(after))
	}
	sidecar, err := os.ReadFile(wal + ".corrupt")
	if err != nil {
		t.Fatalf("corrupt sidecar: %v", err)
	}
	if len(sidecar) != 6 {
		t.Errorf("sidecar holds %d bytes, want 6", len(sidecar))
	}
	// The truncated journal keeps accepting appends.
	if err := j2.Append(rec(4, "j4")); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
}

func TestCorruptRecordTruncatesFromDamagePoint(t *testing.T) {
	dir := t.TempDir()
	j, _ := openOrFatal(t, nil, dir)
	for i := 1; i <= 4; i++ {
		if err := j.Append(rec(i, "j")); err != nil {
			t.Fatal(err)
		}
	}
	closeOrFatal(t, j)

	// Flip one payload byte inside the second record.
	wal := filepath.Join(dir, walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := Encode(rec(1, "j"))
	if err != nil {
		t.Fatal(err)
	}
	data[len(frame)+frameHeader+2] ^= 0xFF
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rep := openOrFatal(t, nil, dir)
	defer closeOrFatal(t, j2)
	if len(rep.Records) != 1 {
		t.Fatalf("replayed %d records past corruption, want 1", len(rep.Records))
	}
	if rep.TruncatedBytes != len(data)-len(frame) {
		t.Errorf("truncated %d bytes, want %d", rep.TruncatedBytes, len(data)-len(frame))
	}
	if _, err := os.Stat(wal + ".corrupt"); err != nil {
		t.Errorf("no corrupt sidecar: %v", err)
	}
}

func TestTornWriteFromInjectedENOSPCRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	j, _ := openOrFatal(t, ffs, dir)
	if err := j.Append(rec(1, "j1")); err != nil {
		t.Fatal(err)
	}
	frame, err := Encode(rec(2, "j2"))
	if err != nil {
		t.Fatal(err)
	}
	// Allow only half the next frame: the write tears mid-record.
	ffs.SetWriteBudget(int64(len(frame) / 2))
	if err := j.Append(rec(2, "j2")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("append under ENOSPC: %v, want ErrNoSpace", err)
	}
	// Crash: abandon the handle without closing cleanly.
	ffs.SetWriteBudget(-1)

	j2, rep := openOrFatal(t, NewFaultFS(nil), dir)
	defer closeOrFatal(t, j2)
	if len(rep.Records) != 1 || rep.Records[0].JobID != "j1" {
		t.Fatalf("replay after torn write: %+v", rep.Records)
	}
	if rep.TruncatedBytes != len(frame)/2 {
		t.Errorf("truncated %d bytes, want %d", rep.TruncatedBytes, len(frame)/2)
	}
}

func TestShortReadRecoversShorterPrefix(t *testing.T) {
	dir := t.TempDir()
	j, _ := openOrFatal(t, nil, dir)
	for i := 1; i <= 3; i++ {
		if err := j.Append(rec(i, "j")); err != nil {
			t.Fatal(err)
		}
	}
	closeOrFatal(t, j)

	ffs := NewFaultFS(nil)
	ffs.SetShortRead(5) // the tail of the last record is missing
	j2, rep := openOrFatal(t, ffs, dir)
	defer closeOrFatal(t, j2)
	if len(rep.Records) != 2 {
		t.Fatalf("replayed %d records from short read, want 2", len(rep.Records))
	}
}

func TestCompactRewritesToSnapshot(t *testing.T) {
	dir := t.TempDir()
	j, _ := openOrFatal(t, nil, dir)
	j.maxBytes = 256
	for i := 1; i <= 20; i++ {
		if err := j.Append(rec(i, "j")); err != nil {
			t.Fatal(err)
		}
	}
	if !j.NeedsCompact() {
		t.Fatal("journal past maxBytes does not request compaction")
	}
	snapshot := []Record{rec(19, "j"), rec(20, "j")}
	if err := j.Compact(snapshot); err != nil {
		t.Fatalf("compact: %v", err)
	}
	st := j.Stats()
	if st.Records != 2 || j.NeedsCompact() {
		t.Fatalf("post-compact stats %+v, needsCompact %v", st, j.NeedsCompact())
	}
	// The compacted journal still accepts appends and replays cleanly.
	if err := j.Append(rec(21, "j")); err != nil {
		t.Fatal(err)
	}
	closeOrFatal(t, j)
	j2, rep := openOrFatal(t, nil, dir)
	defer closeOrFatal(t, j2)
	if len(rep.Records) != 3 || rep.Records[2].Seq != 21 {
		t.Fatalf("replay after compact: %+v", rep.Records)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	j, _ := openOrFatal(t, nil, t.TempDir())
	closeOrFatal(t, j)
	if err := j.Append(rec(1, "j")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestAppendSyncsEveryRecord pins the one sync policy: a sync failure
// on any append, not just some, reaches the caller.
func TestAppendSyncsEveryRecord(t *testing.T) {
	ffs := NewFaultFS(nil)
	j, _ := openOrFatal(t, ffs, t.TempDir())
	defer closeOrFatal(t, j)
	for i := 1; i <= 3; i++ {
		if err := j.Append(rec(i, "j")); err != nil {
			t.Fatal(err)
		}
	}
	injected := errors.New("injected sync failure")
	ffs.FailOp("sync", injected)
	defer ffs.FailOp("sync", nil) // disarmed before the deferred close
	if err := j.Append(rec(4, "j")); !errors.Is(err, injected) {
		t.Fatalf("append with failing sync: %v, want the sync error", err)
	}
}

func TestAppendFileSingleWriteAndErrorPropagation(t *testing.T) {
	path := filepath.Join(t.TempDir(), walName+".corrupt")
	if err := appendFile(OS(), path, []byte("line1\n")); err != nil {
		t.Fatal(err)
	}
	if err := appendFile(OS(), path, []byte("line2\n")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "line1\nline2\n" {
		t.Fatalf("appended content %q", data)
	}

	ffs := NewFaultFS(nil)
	injected := errors.New("injected sync failure")
	ffs.FailOp("sync", injected)
	if err := appendFile(ffs, path, []byte("line3\n")); !errors.Is(err, injected) {
		t.Fatalf("sync error not propagated: %v", err)
	}
	ffs.FailOp("sync", nil)
	ffs.SetWriteBudget(2)
	if err := appendFile(ffs, path, []byte("line4\n")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("ENOSPC not propagated: %v", err)
	}
}
