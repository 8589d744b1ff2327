package chaostest

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/experiment"
	"github.com/flexray-go/coefficient/internal/serve"
)

// frameBounds returns every journal offset that ends a complete record
// frame (4-byte length + 4-byte CRC + payload), starting with 0 — the
// set of byte counts a crash could have left fully synced.
func frameBounds(data []byte) []int {
	bounds := []int{0}
	off := 0
	for off+8 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if off+8+n > len(data) {
			break
		}
		off += 8 + n
		bounds = append(bounds, off)
	}
	return bounds
}

// copyResults duplicates the persistent result files of one state dir
// into another.
func copyResults(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		if os.IsNotExist(err) {
			return
		}
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashAtEveryJournalPrefixRecovers is the crash-recovery property
// check: a chaos run records a journal, then every frame-aligned prefix
// of it — each one a state the daemon could have crashed in — boots a
// fresh daemon.  For every prefix the boot must succeed, every admitted
// job must reach exactly one terminal state, and every completed job
// must produce the exact bytes of a serial offline run, whether its
// result was re-served from the persistent store or re-executed.  Odd
// prefixes boot WITHOUT the result files, forcing the re-execution path
// (a `done` record whose result is gone must downgrade and re-run).
func TestCrashAtEveryJournalPrefixRecovers(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state")
	cfg := baseConfig()
	cfg.StateDir = state
	h, err := New(cfg, Plan{Seed: 42, PanicPct: 10})
	if err != nil {
		t.Fatal(err)
	}
	h.Server.Start()

	crits := []string{"low", "", "high"}
	specs := make([]serve.JobSpec, 5)
	hashToSpec := make(map[string]serve.JobSpec)
	ids := make([]string, len(specs))
	for i := range specs {
		spec := quickSpec(uint64(600 + i))
		spec.Criticality = crits[i%len(crits)]
		specs[i] = spec
		job, cached, err := h.Server.Submit(spec)
		if err != nil || cached != nil {
			t.Fatalf("submit %d: cached %v, err %v", i, cached, err)
		}
		hashToSpec[job.Hash] = spec
		ids[i] = job.ID
	}
	if err := drain(t, h.Server, 2*time.Minute); err != nil {
		t.Fatalf("phase-1 drain: %v", err)
	}
	for _, v := range h.CheckInvariants() {
		t.Fatalf("phase-1 invariant: %s", v)
	}

	wal, err := os.ReadFile(filepath.Join(state, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBounds(wal)
	if len(bounds) < 6 {
		t.Fatalf("journal too small to be interesting: %d frames", len(bounds)-1)
	}

	// One deterministic offline reference table per scenario hash.
	hashes := make([]string, 0, len(hashToSpec))
	for hash := range hashToSpec {
		hashes = append(hashes, hash)
	}
	sort.Strings(hashes)
	offline := make(map[string]string, len(hashes))
	for _, hash := range hashes {
		spec := hashToSpec[hash]
		rows, err := experiment.Degradation(experiment.DegradationOptions{
			Seed: spec.Seed, Quick: spec.Quick, Parallel: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		offline[hash] = experiment.DegradationTable(rows).String()
	}

	recoverFrom := func(t *testing.T, journalBytes []byte, withResults bool) {
		t.Helper()
		dir := filepath.Join(t.TempDir(), "recovered")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "journal.wal"), journalBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if withResults {
			copyResults(t, filepath.Join(state, "results"), filepath.Join(dir, "results"))
		}
		rcfg := baseConfig()
		rcfg.StateDir = dir
		srv, err := serve.New(rcfg) // no chaos: the rerun is clean
		if err != nil {
			t.Fatalf("boot from crash image: %v", err)
		}
		srv.Start()
		if err := drain(t, srv, 2*time.Minute); err != nil {
			t.Fatalf("drain recovered daemon: %v", err)
		}
		st := srv.Stats()
		terminal := st.Done + st.Failed + st.Shed + st.Quarantined
		if st.Admitted != terminal || st.Queued != 0 || st.Running != 0 {
			t.Fatalf("job lost after recovery: %+v", st)
		}
		if st.DoubleReports != 0 || st.StoreConflicts != 0 {
			t.Fatalf("double report after recovery: %+v", st)
		}
		for _, id := range ids {
			job, ok := srv.Job(id)
			if !ok {
				continue // not admitted yet at this crash point
			}
			doc := srv.Status(job)
			switch doc.State {
			case "done":
				res, ok := srv.Store().Get(job.Hash)
				if !ok {
					t.Fatalf("done job %s has no result", id)
				}
				if res.Table != offline[job.Hash] {
					t.Errorf("job %s: recovered result differs from serial offline run", id)
				}
			case "failed", "shed", "quarantined":
				// Terminal states recorded before the crash are preserved.
			default:
				t.Errorf("job %s left non-terminal after recovery drain: %s", id, doc.State)
			}
		}
	}

	for i, k := range bounds {
		recoverFrom(t, wal[:k], i%2 == 0)
	}

	// A torn, non-frame-aligned tail must truncate, not abort.
	torn := append(append([]byte{}, wal[:bounds[2]]...), wal[bounds[2]:bounds[2]+5]...)
	dir := filepath.Join(t.TempDir(), "torn")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.wal"), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	rcfg := baseConfig()
	rcfg.StateDir = dir
	srv, err := serve.New(rcfg)
	if err != nil {
		t.Fatalf("boot from torn journal: %v", err)
	}
	if got := srv.Stats().JournalTruncatedBytes; got != 5 {
		t.Errorf("journalTruncatedBytes = %d, want 5", got)
	}
	srv.Start()
	if err := drain(t, srv, 2*time.Minute); err != nil {
		t.Fatalf("drain after torn boot: %v", err)
	}
}
