package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/flexray-go/coefficient/internal/serve/journal"
)

// durableConfig is testConfig plus a state directory.
func durableConfig(t *testing.T) Config {
	t.Helper()
	cfg := testConfig()
	cfg.StateDir = filepath.Join(t.TempDir(), "state")
	return cfg
}

// copyDir duplicates a state directory so a second server can boot from
// a frozen image of it while the first keeps running — the in-process
// stand-in for a crashed process's disk.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		sp, dp := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			copyDir(t, sp, dp)
			continue
		}
		data, err := os.ReadFile(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dp, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestartReservesCachedResultsAndTerminalJobs reboots a cleanly
// drained daemon from its state directory: persisted results must be
// re-served from cache without re-execution, and terminal jobs must
// reappear on the status API with their IDs intact.
func TestRestartReservesCachedResultsAndTerminalJobs(t *testing.T) {
	cfg := durableConfig(t)
	s1 := mustNew(t, cfg)
	s1.Start()
	specA, specB := quickSpec(500), quickSpec(501)
	jobA, _, err := s1.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	jobB, _, err := s1.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	drainAll(t, s1)
	wantA := offlineTable(t, specA)

	s2 := mustNew(t, cfg)
	// Before Start: the cache must already be warm from disk alone.
	res, ok := s2.Store().Get(jobA.Hash)
	if !ok {
		t.Fatal("persisted result not re-served after restart")
	}
	if res.Table != wantA {
		t.Errorf("restored result differs from offline run:\n%s\nvs\n%s", res.Table, wantA)
	}
	if _, cached, err := s2.Submit(specA); err != nil || cached == nil {
		t.Fatalf("resubmit after restart: cached %v, err %v", cached, err)
	}
	for _, id := range []string{jobA.ID, jobB.ID} {
		job, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		if st := s2.Status(job); st.State != "done" {
			t.Errorf("job %s restored as %s, want done", id, st.State)
		}
	}
	st := s2.Stats()
	if st.RecoveredJobs != 0 {
		t.Errorf("recovered %d jobs after a clean drain, want 0", st.RecoveredJobs)
	}
	if st.StoreEntries != 2 {
		t.Errorf("storeEntries = %d, want 2", st.StoreEntries)
	}
	if st.JournalRecords == 0 || st.JournalBytes == 0 {
		t.Errorf("journal gauges empty after replay: %+v", st)
	}
	drainAll(t, s2)
}

// TestRestartReenqueuesInterruptedJobsInOrder freezes a daemon with
// jobs queued and running, boots a second daemon from a copy of its
// state directory (the crash image), and checks the interrupted jobs
// are re-enqueued in their original criticality+FIFO order and re-run
// to byte-identical results under their original IDs.
func TestRestartReenqueuesInterruptedJobsInOrder(t *testing.T) {
	cfg := durableConfig(t)
	cfg.Workers = 1
	gate := make(chan struct{})
	cfg.Hooks.BeforeAttempt = func(ctx context.Context, hash string, attempt int) error {
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s1 := mustNew(t, cfg)
	s1.Start()

	specs := []JobSpec{quickSpec(510), quickSpec(511), quickSpec(512)}
	specs[0].Criticality = "low"
	specs[2].Criticality = "high"
	jobs := make([]*Job, len(specs))
	for i, spec := range specs {
		job, _, err := s1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	waitStats(t, s1, "worker holding first job", func(st Stats) bool { return st.Running == 1 })

	// Freeze the crash image while jobs[0] runs and the rest are queued.
	crashDir := filepath.Join(t.TempDir(), "crash")
	copyDir(t, cfg.StateDir, crashDir)

	cfg2 := testConfig()
	cfg2.StateDir = crashDir
	s2 := mustNew(t, cfg2)
	st := s2.Stats()
	if st.RecoveredJobs != 3 {
		t.Fatalf("recovered %d jobs, want 3", st.RecoveredJobs)
	}
	// White-box: recovery rebuilt the per-tier FIFO from admission order.
	if got := s2.q.tiers[CritHigh]; len(got) != 1 || got[0].ID != jobs[2].ID {
		t.Errorf("high tier after recovery = %v, want [%s]", tierIDs(got), jobs[2].ID)
	}
	if got := s2.q.tiers[CritNormal]; len(got) != 1 || got[0].ID != jobs[1].ID {
		t.Errorf("normal tier after recovery = %v, want [%s]", tierIDs(got), jobs[1].ID)
	}
	if got := s2.q.tiers[CritLow]; len(got) != 1 || got[0].ID != jobs[0].ID {
		t.Errorf("low tier after recovery = %v, want [%s]", tierIDs(got), jobs[0].ID)
	}

	s2.Start()
	drainAll(t, s2)
	for i, job := range jobs {
		rj, ok := s2.Job(job.ID)
		if !ok {
			t.Fatalf("job %s lost across crash recovery", job.ID)
		}
		if st := s2.Status(rj); st.State != "done" {
			t.Fatalf("recovered job %s state %s (err %q), want done", job.ID, st.State, st.Error)
		}
		res, ok := s2.Store().Get(job.Hash)
		if !ok {
			t.Fatalf("recovered job %s has no result", job.ID)
		}
		if want := offlineTable(t, specs[i]); res.Table != want {
			t.Errorf("recovered job %s result differs from offline run", job.ID)
		}
	}

	// Release the frozen daemon and force-drain it.
	close(gate)
	drainAll(t, s1)
}

func tierIDs(jobs []*Job) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

// TestBootSurvivesTornTailAndCorruptResults fabricates the worst disk a
// crash can leave — a journal with a torn garbage tail and a corrupt
// result file — and checks boot quarantines both instead of aborting,
// then re-runs the interrupted job deterministically.
func TestBootSurvivesTornTailAndCorruptResults(t *testing.T) {
	cfg := durableConfig(t)
	spec := quickSpec(520)
	hash, err := spec.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{ID: "j1-" + hash[:8], Hash: hash, Spec: spec, Crit: CritNormal, seq: 1, state: StateQueued}
	rec, err := admittedRecord(job)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := journal.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(cfg.StateDir, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, frame...), []byte("\x99garbage-torn-tail")...)
	if err := os.WriteFile(filepath.Join(cfg.StateDir, "journal.wal"), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cfg.StateDir, "results", hash+".json"),
		[]byte(`{"crc32c":"00000000","payload":{"bogus":true}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	s := mustNew(t, cfg)
	st := s.Stats()
	if st.JournalTruncatedBytes == 0 {
		t.Error("torn tail not reported as truncated")
	}
	if st.CorruptFiles == 0 {
		t.Error("corrupt result file not counted")
	}
	if st.RecoveredJobs != 1 {
		t.Fatalf("recovered %d jobs, want 1", st.RecoveredJobs)
	}
	quarantined := filepath.Join(cfg.StateDir, "results", hash+".json.corrupt")
	if _, err := os.Stat(quarantined); err != nil {
		t.Errorf("corrupt result not quarantined to sidecar: %v", err)
	}
	sidecar := filepath.Join(cfg.StateDir, "journal.wal.corrupt")
	if data, err := os.ReadFile(sidecar); err != nil || !strings.Contains(string(data), "garbage-torn-tail") {
		t.Errorf("torn tail not quarantined to %s (err %v)", sidecar, err)
	}

	s.Start()
	drainAll(t, s)
	rj, ok := s.Job(job.ID)
	if !ok {
		t.Fatal("fabricated job not recovered")
	}
	if st := s.Status(rj); st.State != "done" {
		t.Fatalf("recovered job state %s (err %q), want done", st.State, st.Error)
	}
	res, _ := s.Store().Get(hash)
	if want := offlineTable(t, spec); res == nil || res.Table != want {
		t.Error("re-executed result differs from offline run")
	}
}

// TestBootDropsLegacyAttemptRecords boots from a journal written by a
// daemon that still retried jobs: besides the admitted, running and
// terminal records, each job carries two "attempt" records with a
// retry-timeline payload.  The records are framed by hand (length ‖
// CRC-32C ‖ JSON), since journal.Record no longer has that payload.
// Boot must skip them, keep both terminal jobs with their errors,
// re-poison the quarantined hash, and compact them out of the journal.
func TestBootDropsLegacyAttemptRecords(t *testing.T) {
	cfg := durableConfig(t)
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		t.Fatal(err)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	var wal []byte
	frame := func(payload string) {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum([]byte(payload), castagnoli))
		wal = append(append(wal, hdr[:]...), payload...)
	}
	type legacyJob struct {
		spec         JobSpec
		hash, id     string
		state, error string
	}
	jobs := []*legacyJob{
		{spec: quickSpec(570), state: "quarantined", error: "scenario quarantined after repeated panics: boom"},
		{spec: quickSpec(571), state: "failed", error: "retries exhausted after 2 attempts: transient: flap"},
	}
	for i, j := range jobs {
		hash, err := j.spec.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		spec, err := json.Marshal(j.spec)
		if err != nil {
			t.Fatal(err)
		}
		j.hash, j.id = hash, fmt.Sprintf("j%d-%s", i+1, hash[:8])
		frame(fmt.Sprintf(`{"kind":"admitted","seq":%d,"jobId":%q,"hash":%q,"crit":"normal","spec":%s}`, i+1, j.id, hash, spec))
		frame(fmt.Sprintf(`{"kind":"running","jobId":%q}`, j.id))
		frame(fmt.Sprintf(`{"kind":"attempt","jobId":%q,"attempt":{"attempt":1,"error":"boom","panic":true,"backoff":"10.5ms"}}`, j.id))
		frame(fmt.Sprintf(`{"kind":"attempt","jobId":%q,"attempt":{"attempt":2,"error":"boom","panic":true}}`, j.id))
		frame(fmt.Sprintf(`{"kind":%q,"jobId":%q,"error":%q}`, j.state, j.id, j.error))
	}
	walPath := filepath.Join(cfg.StateDir, "journal.wal")
	if err := os.WriteFile(walPath, wal, 0o644); err != nil {
		t.Fatal(err)
	}

	s := mustNew(t, cfg)
	if st := s.Stats(); st.CorruptFiles != 0 || st.JournalTruncatedBytes != 0 || st.RecoveredJobs != 0 {
		t.Fatalf("legacy journal booted as damaged: %+v", st)
	}
	for _, j := range jobs {
		job, ok := s.Job(j.id)
		if !ok {
			t.Fatalf("job %s lost across boot", j.id)
		}
		if st := s.Status(job); st.State != j.state || st.Error != j.error {
			t.Errorf("job %s restored as %s (%q), want %s (%q)", j.id, st.State, st.Error, j.state, j.error)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := httpPost(ts.URL+"/jobs", `{"seed": 570, "quick": true, "parallel": 1}`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.status != http.StatusConflict {
		t.Errorf("resubmit of the quarantined scenario: status %d body %s, want 409", resp.status, resp.body)
	}
	if hashes := s.Stats().QuarantinedHashes; len(hashes) != 1 || hashes[0] != jobs[0].hash {
		t.Errorf("quarantined hashes = %v, want [%s]", hashes, jobs[0].hash)
	}

	s.Start()
	drainAll(t, s)
	jrn, replay, err := journal.Open(journal.OS(), cfg.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}
	kinds := make([]string, len(replay.Records))
	for i, rec := range replay.Records {
		kinds[i] = rec.Kind
	}
	if got, want := strings.Join(kinds, ","), "admitted,quarantined,admitted,failed"; got != want {
		t.Errorf("journal kinds after drain = %s, want %s", got, want)
	}
}

// TestDiskDegradePolicyKeepsServingAfterENOSPC exhausts the injected
// write budget mid-operation: under DiskDegrade the daemon must keep
// accepting and completing work from memory, surfacing the degradation
// on its gauges instead of failing.
func TestDiskDegradePolicyKeepsServingAfterENOSPC(t *testing.T) {
	fault := journal.NewFaultFS(nil)
	cfg := durableConfig(t)
	cfg.FS = fault
	s := mustNew(t, cfg)
	s.Start()

	if _, _, err := s.Submit(quickSpec(530)); err != nil {
		t.Fatal(err)
	}
	waitStats(t, s, "first job done", func(st Stats) bool { return st.Done == 1 })

	fault.SetWriteBudget(3) // the next journal append tears
	job, _, err := s.Submit(quickSpec(531))
	if err != nil {
		t.Fatalf("submit under degrade policy must survive ENOSPC, got %v", err)
	}
	st := s.Stats()
	if !st.DiskDegraded || st.DiskError == "" {
		t.Fatalf("degradation not surfaced: %+v", st)
	}
	if !strings.Contains(st.DiskError, journal.ErrNoSpace.Error()) {
		t.Errorf("diskError %q does not name the injected fault", st.DiskError)
	}
	drainAll(t, s)
	if got := s.Status(job); got.State != "done" {
		t.Errorf("job admitted while degraded ended %s, want done", got.State)
	}
}

// TestDiskFailPolicyRejectsSubmissionsAfterENOSPC is the strict policy:
// once durability is lost, new submissions bounce with ErrDisk (HTTP
// 507) and readiness drops, while in-flight work still completes.
func TestDiskFailPolicyRejectsSubmissionsAfterENOSPC(t *testing.T) {
	fault := journal.NewFaultFS(nil)
	cfg := durableConfig(t)
	cfg.FS = fault
	cfg.DiskPolicy = DiskFail
	s := mustNew(t, cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first, _, err := s.Submit(quickSpec(540))
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, s, "first job done", func(st Stats) bool { return st.Done == 1 })

	fault.SetWriteBudget(3)
	if _, _, err := s.Submit(quickSpec(541)); !errors.Is(err, ErrDisk) {
		t.Fatalf("submit after ENOSPC under fail policy: err = %v, want ErrDisk", err)
	}
	// The rejected job left no trace: admission was rolled back.
	if st := s.Stats(); st.Admitted != 1 {
		t.Errorf("admitted = %d after rolled-back submission, want 1", st.Admitted)
	}

	resp, err := httpPost(ts.URL+"/jobs", `{"seed": 542, "quick": true}`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.status != 507 {
		t.Errorf("submit over HTTP after disk failure: status %d body %s, want 507", resp.status, resp.body)
	}
	ready, err := httpGet(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if ready.status != 503 || !strings.Contains(ready.body, `"diskDegraded": true`) {
		t.Errorf("readyz after disk failure: status %d body %s, want 503 + diskDegraded", ready.status, ready.body)
	}
	if got := s.Status(first); got.State != "done" {
		t.Errorf("pre-failure job lost: state %s", got.State)
	}
	drainAll(t, s)
}

// TestBootDiskErrorPolicySplit: a boot-time I/O failure aborts New under
// DiskFail but boots a degraded memory-only daemon under DiskDegrade.
// Corrupt state never reaches this path — only real I/O errors do.
func TestBootDiskErrorPolicySplit(t *testing.T) {
	bootErr := fmt.Errorf("injected controller failure")

	fault := journal.NewFaultFS(nil)
	fault.FailOp("mkdirall", bootErr)
	cfg := durableConfig(t)
	cfg.FS = fault
	cfg.DiskPolicy = DiskFail
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), bootErr.Error()) {
		t.Fatalf("New under DiskFail with boot I/O error: err = %v, want wrapped %v", err, bootErr)
	}

	fault2 := journal.NewFaultFS(nil)
	fault2.FailOp("mkdirall", bootErr)
	cfg2 := durableConfig(t)
	cfg2.FS = fault2
	s := mustNew(t, cfg2) // DiskDegrade default
	st := s.Stats()
	if !st.DiskDegraded || !strings.Contains(st.DiskError, bootErr.Error()) {
		t.Fatalf("degraded boot not surfaced: %+v", st)
	}
	s.Start()
	job, _, err := s.Submit(quickSpec(550))
	if err != nil {
		t.Fatal(err)
	}
	drainAll(t, s)
	if got := s.Status(job); got.State != "done" {
		t.Errorf("memory-only job ended %s, want done", got.State)
	}
}

// httpResp is a drained HTTP response.
type httpResp struct {
	status int
	body   string
}

func httpGet(url string) (httpResp, error) {
	resp, err := http.Get(url)
	if err != nil {
		return httpResp{}, err
	}
	return drainResp(resp)
}

func httpPost(url, body string) (httpResp, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return httpResp{}, err
	}
	return drainResp(resp)
}

func drainResp(resp *http.Response) (httpResp, error) {
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return httpResp{status: resp.StatusCode, body: string(data)}, err
}
