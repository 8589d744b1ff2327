package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/experiment"
	"github.com/flexray-go/coefficient/internal/serve/journal"
)

// instantSleep makes retry backoffs free in tests while preserving the
// cancellation semantics of the real sleeper.
func instantSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

func testConfig() Config {
	return Config{
		Workers:       2,
		QueueCapacity: 8,
		Retry:         RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond},
		Sleep:         instantSleep,
	}
}

func quickSpec(seed uint64) JobSpec {
	return JobSpec{Seed: seed, Quick: true, Parallel: 1}
}

// mustNew builds a server or fails the test; only durable-state setups
// can make New error.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// drainAll settles the server: every admitted job reaches a terminal
// state before it returns.
func drainAll(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// offlineTable runs the same scenario serially, offline — the bytes a
// daemon result must match exactly.
func offlineTable(t *testing.T, spec JobSpec) string {
	t.Helper()
	rows, err := experiment.Degradation(experiment.DegradationOptions{
		Scenario:  spec.Scenario,
		Setting:   spec.setting(),
		Seed:      spec.Seed,
		Quick:     spec.Quick,
		Minislots: spec.Minislots,
		Parallel:  1,
	})
	if err != nil {
		t.Fatalf("offline run: %v", err)
	}
	return experiment.DegradationTable(rows).String()
}

// waitStats polls until pred holds or the deadline passes.
func waitStats(t *testing.T, s *Server, what string, pred func(Stats) bool) {
	t.Helper()
	for i := 0; i < 30000; i++ {
		if pred(s.Stats()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; stats %+v", what, s.Stats())
}

func TestSubmitRunsJobAndMatchesOfflineRun(t *testing.T) {
	s := mustNew(t, testConfig())
	s.Start()
	spec := quickSpec(1)
	job, cached, err := s.Submit(spec)
	if err != nil || cached != nil {
		t.Fatalf("submit: job %v, cached %v, err %v", job, cached, err)
	}
	drainAll(t, s)

	st := s.Status(job)
	if st.State != "done" {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	res, ok := s.Store().Get(job.Hash)
	if !ok {
		t.Fatal("result missing from store")
	}
	if want := offlineTable(t, spec); res.Table != want {
		t.Errorf("daemon result differs from serial offline run:\n%s\nvs\n%s", res.Table, want)
	}
	stats := s.Stats()
	if stats.Done != 1 || stats.Admitted != 1 || stats.DoubleReports != 0 || stats.StoreConflicts != 0 {
		t.Errorf("stats %+v", stats)
	}
}

func TestSubmitReturnsCachedResult(t *testing.T) {
	s := mustNew(t, testConfig())
	s.Start()
	spec := quickSpec(2)
	if _, _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	waitStats(t, s, "job done", func(st Stats) bool { return st.Done == 1 })

	// Identical spec: served from the store, no new job.
	_, cached, err := s.Submit(spec)
	if err != nil || cached == nil {
		t.Fatalf("resubmit: cached %v, err %v", cached, err)
	}
	// Service knobs (criticality, deadline, parallelism) must not split
	// the cache: the result is byte-identical regardless.
	alt := spec
	alt.Criticality = "high"
	alt.Parallel = 8
	alt.Deadline = 1 << 40
	_, cached2, err := s.Submit(alt)
	if err != nil || cached2 == nil {
		t.Fatalf("alt resubmit: cached %v, err %v", cached2, err)
	}
	if cached2.Hash != cached.Hash {
		t.Error("service knobs changed the canonical scenario hash")
	}
	drainAll(t, s)
}

func TestBadSpecsRejected(t *testing.T) {
	s := mustNew(t, testConfig())
	cases := []JobSpec{
		{Seed: 1, Setting: "BER-8"},
		{Seed: 1, Criticality: "urgent"},
		{Seed: 1, Minislots: -1},
		{Seed: 1, Parallel: -2},
		{Seed: 1, Deadline: -5},
	}
	for i, spec := range cases {
		if _, _, err := s.Submit(spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d: err = %v, want ErrBadSpec", i, err)
		}
	}
}

func TestAdmissionShedsByCriticalityAndRejectsWhenFull(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueCapacity = 2
	gate := make(chan struct{})
	cfg.Hooks.BeforeAttempt = func(ctx context.Context, hash string, attempt int) error {
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s := mustNew(t, cfg)
	s.Start()

	// j1 occupies the single worker (held at the gate).
	j1, _, err := s.Submit(quickSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, s, "worker busy", func(st Stats) bool { return st.Running == 1 })

	low1spec, low2spec := quickSpec(11), quickSpec(12)
	low1spec.Criticality, low2spec.Criticality = "low", "low"
	low1, _, err := s.Submit(low1spec)
	if err != nil {
		t.Fatal(err)
	}
	low2, _, err := s.Submit(low2spec)
	if err != nil {
		t.Fatal(err)
	}

	// Queue full: a high-criticality job preempts the newest low job.
	highSpec := quickSpec(13)
	highSpec.Criticality = "high"
	high, _, err := s.Submit(highSpec)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Status(low2); st.State != "shed" {
		t.Fatalf("low2 state = %s, want shed", st.State)
	}

	// Queue full again ({low1, high}): a low submission has no victim.
	rejSpec := quickSpec(14)
	rejSpec.Criticality = "low"
	if _, _, err := s.Submit(rejSpec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}

	close(gate)
	drainAll(t, s)

	for _, c := range []struct {
		job  *Job
		want string
	}{{j1, "done"}, {low1, "done"}, {high, "done"}, {low2, "shed"}} {
		if st := s.Status(c.job); st.State != c.want {
			t.Errorf("%s: state = %s (err %q), want %s", c.job.ID, st.State, st.Error, c.want)
		}
	}
	stats := s.Stats()
	if stats.Admitted != 4 || stats.Done != 3 || stats.Shed != 1 || stats.DoubleReports != 0 {
		t.Errorf("stats %+v", stats)
	}
}

func TestJobDeadlineFailsSlowJob(t *testing.T) {
	cfg := testConfig()
	// A slow cell: blocks until the job's deadline cancels it.
	cfg.Hooks.BeforeAttempt = func(ctx context.Context, hash string, attempt int) error {
		<-ctx.Done()
		return ctx.Err()
	}
	s := mustNew(t, cfg)
	s.Start()
	spec := quickSpec(20)
	spec.Deadline = 30 * 1000 * 1000 // 30ms in scenario.Duration (ns)
	job, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	drainAll(t, s)
	st := s.Status(job)
	if st.State != "failed" {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, context.DeadlineExceeded.Error()) {
		t.Errorf("error %q does not mention the deadline", st.Error)
	}
}

func TestQuarantineAfterRepeatedPanics(t *testing.T) {
	cfg := testConfig()
	cfg.Retry = RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
	cfg.QuarantineAfter = 3
	cfg.Hooks.BeforeAttempt = func(ctx context.Context, hash string, attempt int) error {
		panic(fmt.Sprintf("poisoned scenario, attempt %d", attempt))
	}
	s := mustNew(t, cfg)
	s.Start()
	spec := quickSpec(30)
	job, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, s, "quarantine", func(st Stats) bool { return st.Quarantined == 1 })

	st := s.Status(job)
	if st.State != "quarantined" {
		t.Fatalf("state = %s, want quarantined", st.State)
	}
	if len(st.Attempts) != 3 {
		t.Errorf("attempts = %d, want 3 (quarantined after the third panic)", len(st.Attempts))
	}
	for _, a := range st.Attempts {
		if !a.Panic {
			t.Errorf("attempt %d not marked as panic", a.Attempt)
		}
		if !strings.Contains(a.Error, "poisoned scenario") {
			t.Errorf("attempt %d error %q missing panic value", a.Attempt, a.Error)
		}
		if !strings.Contains(a.Error, "serve.(*Server).attempt") && !strings.Contains(a.Error, "goroutine") {
			t.Errorf("attempt %d error missing stack trace:\n%s", a.Attempt, a.Error)
		}
	}

	// Further submissions of the poisoned scenario are refused.
	if _, _, err := s.Submit(spec); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("resubmit err = %v, want ErrQuarantined", err)
	}
	if hashes := s.Stats().QuarantinedHashes; len(hashes) != 1 || hashes[0] != job.Hash {
		t.Errorf("quarantined hashes = %v, want [%s]", hashes, job.Hash)
	}
	drainAll(t, s)
}

func TestForcedDrainTerminatesWithNoJobLost(t *testing.T) {
	cfg := testConfig()
	cfg.Hooks.BeforeAttempt = func(ctx context.Context, hash string, attempt int) error {
		<-ctx.Done() // in-flight jobs outrun any drain deadline
		return ctx.Err()
	}
	s := mustNew(t, cfg)
	s.Start()
	for seed := uint64(40); seed < 43; seed++ {
		if _, _, err := s.Submit(quickSpec(seed)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain err = %v, want DeadlineExceeded", err)
	}
	stats := s.Stats()
	if stats.Failed != 3 || stats.Queued != 0 || stats.Running != 0 {
		t.Errorf("jobs lost in forced drain: %+v", stats)
	}
	if stats.Admitted != stats.Done+stats.Failed+stats.Shed+stats.Quarantined {
		t.Errorf("admitted %d != terminal total: %+v", stats.Admitted, stats)
	}
}

// TestRetryTimelineDeterministic is the retry/backoff determinism
// contract: the same seeds and the same injected transient-failure
// schedule produce byte-identical retry timelines and final results at
// worker count 1 / sweep parallelism 1 and worker count 8 / sweep
// parallelism 8.
func TestRetryTimelineDeterministic(t *testing.T) {
	runOnce := func(workers, specParallel int) (map[string]string, map[string]string) {
		cfg := Config{
			Workers:       workers,
			QueueCapacity: 16,
			Retry:         RetryPolicy{MaxAttempts: 4, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond},
			Sleep:         instantSleep,
			Hooks: Hooks{
				// The injected schedule: every job's first two attempts
				// fail transiently, the third succeeds.
				BeforeAttempt: func(ctx context.Context, hash string, attempt int) error {
					if attempt <= 2 {
						return Transient(fmt.Errorf("injected fault %d for %s", attempt, hash[:8]))
					}
					return nil
				},
			},
		}
		s := mustNew(t, cfg)
		s.Start()
		jobs := make([]*Job, 0, 3)
		for seed := uint64(1); seed <= 3; seed++ {
			spec := quickSpec(seed)
			spec.Parallel = specParallel
			job, _, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job)
		}
		drainAll(t, s)
		timelines := make(map[string]string, len(jobs))
		tables := make(map[string]string, len(jobs))
		for _, job := range jobs {
			st := s.Status(job)
			if st.State != "done" {
				t.Fatalf("job %s state %s (err %q)", job.ID, st.State, st.Error)
			}
			tl, err := json.Marshal(st.Attempts)
			if err != nil {
				t.Fatal(err)
			}
			timelines[job.Hash] = string(tl)
			res, _ := s.Store().Get(job.Hash)
			tables[job.Hash] = res.Table
		}
		return timelines, tables
	}

	serialTL, serialTables := runOnce(1, 1)
	parTL, parTables := runOnce(8, 8)
	if len(serialTL) != 3 {
		t.Fatalf("expected 3 distinct scenario hashes, got %d", len(serialTL))
	}
	hashes := make([]string, 0, len(serialTL))
	for hash := range serialTL {
		hashes = append(hashes, hash)
	}
	sort.Strings(hashes)
	for _, hash := range hashes {
		tl := serialTL[hash]
		if got := parTL[hash]; got != tl {
			t.Errorf("retry timeline for %s differs:\nserial: %s\nparallel: %s", hash[:8], tl, got)
		}
		if !strings.Contains(tl, `"backoff"`) {
			t.Errorf("timeline for %s records no backoffs: %s", hash[:8], tl)
		}
		if serialTables[hash] != parTables[hash] {
			t.Errorf("final result for %s differs between parallelism degrees", hash[:8])
		}
	}
}

func TestHTTPAPIEndToEnd(t *testing.T) {
	cfg := durableConfig(t)
	cfg.RetryAfter = 400 * time.Millisecond
	s := mustNew(t, cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		return resp, string(data)
	}
	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		return resp, string(data)
	}

	// Malformed and unknown-field submissions are 400s.
	if resp, _ := post("{"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}
	if resp, _ := post(`{"sede": 1}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", resp.StatusCode)
	}

	// A good submission is accepted and runs to done.
	resp, body := post(`{"seed": 5, "quick": true, "parallel": 1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, body)
	}
	var accepted struct{ ID, Hash, Status string }
	if err := json.Unmarshal([]byte(body), &accepted); err != nil {
		t.Fatal(err)
	}
	state := ""
	for i := 0; i < 30000 && state != "done"; i++ {
		_, jb := get("/jobs/" + accepted.ID)
		var st struct{ State string }
		if err := json.Unmarshal([]byte(jb), &st); err != nil {
			t.Fatal(err)
		}
		state = st.State
		if state != "done" {
			time.Sleep(time.Millisecond)
		}
	}
	if state != "done" {
		t.Fatalf("job never completed; last state %q", state)
	}

	// The result is retrievable by hash and resubmission hits the cache.
	if resp, rb := get("/results/" + accepted.Hash); resp.StatusCode != http.StatusOK ||
		!strings.Contains(rb, "Graceful degradation") {
		t.Errorf("result fetch: status %d body %s", resp.StatusCode, rb)
	}
	if resp, rb := post(`{"seed": 5, "quick": true, "parallel": 1}`); resp.StatusCode != http.StatusOK ||
		!strings.Contains(rb, `"cached"`) {
		t.Errorf("cached resubmit: status %d body %s", resp.StatusCode, rb)
	}

	// Unknown IDs and hashes are 404s.
	if resp, _ := get("/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}
	if resp, _ := get("/results/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown result: status %d", resp.StatusCode)
	}

	// Health and readiness while serving.
	if resp, hb := get("/healthz"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(hb, `"done": 1`) || !strings.Contains(hb, `"draining": false`) {
		t.Errorf("healthz: status %d body %s", resp.StatusCode, hb)
	}
	if resp, rb := get("/readyz"); resp.StatusCode != http.StatusOK || !strings.Contains(rb, `"ready": true`) {
		t.Errorf("readyz: status %d body %s", resp.StatusCode, rb)
	}

	// Drain: readiness flips and submissions bounce with a Retry-After
	// rounded up to whole seconds, never down to "retry now".
	drainAll(t, s)
	if resp, _ := get("/readyz"); resp.StatusCode != http.StatusServiceUnavailable ||
		resp.Header.Get("Retry-After") != "1" {
		t.Errorf("readyz during drain: status %d retry-after %q, want 503 and 1",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if resp, _ := post(`{"seed": 6, "quick": true}`); resp.StatusCode != http.StatusServiceUnavailable ||
		resp.Header.Get("Retry-After") != "1" {
		t.Errorf("submit during drain: status %d retry-after %q, want 503 and 1",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// The result persisted, checksummed, under the state directory.
	disk, err := journal.OpenResultStore(journal.OS(), filepath.Join(cfg.StateDir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	payloads, corrupt, err := disk.Load()
	if err != nil || corrupt != 0 {
		t.Fatalf("load persisted results: %d corrupt, err %v", corrupt, err)
	}
	var persisted Result
	if err := json.Unmarshal(payloads[accepted.Hash], &persisted); err != nil {
		t.Fatalf("persisted result %s: %v", accepted.Hash, err)
	}
	served, ok := s.Store().Get(accepted.Hash)
	if !ok {
		t.Fatal("result missing from the in-memory store")
	}
	if persisted.Table != served.Table || !strings.Contains(persisted.Table, "Graceful degradation") {
		t.Errorf("persisted table differs from the served one:\n%s\nvs\n%s", persisted.Table, served.Table)
	}
}

// TestHealthzReportsDurabilityGauges boots a daemon from the crash image
// of a frozen one and asserts /healthz carries the durability gauges:
// journal size, persistent-store size, degradation flag, and the number
// of jobs the recovery replay re-enqueued.
func TestHealthzReportsDurabilityGauges(t *testing.T) {
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
	for seed := uint64(560); seed < 562; seed++ {
		if _, _, err := s1.Submit(quickSpec(seed)); err != nil {
			t.Fatal(err)
		}
	}
	waitStats(t, s1, "worker busy", func(st Stats) bool { return st.Running == 1 })
	crashDir := filepath.Join(t.TempDir(), "crash")
	copyDir(t, cfg.StateDir, crashDir)

	cfg2 := testConfig()
	cfg2.StateDir = crashDir
	s2 := mustNew(t, cfg2)
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()

	gauges := func() map[string]any {
		t.Helper()
		resp, err := httpGet(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		if resp.status != http.StatusOK {
			t.Fatalf("healthz status %d", resp.status)
		}
		doc := make(map[string]any)
		if err := json.Unmarshal([]byte(resp.body), &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}

	doc := gauges()
	// The exact key set: bench/ and CI parse these names.
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	wantKeys := []string{
		"admitted", "corruptFiles", "diskDegraded", "done", "doubleReports",
		"draining", "failed", "journalBytes", "journalRecords",
		"journalTruncatedBytes", "quarantined", "quarantinedHashes",
		"queueDepth", "queued", "recoveredJobs", "results", "running",
		"shed", "storeConflicts", "storeEntries", "workers",
	}
	if strings.Join(keys, ",") != strings.Join(wantKeys, ",") {
		t.Errorf("healthz keys\n got %v\nwant %v", keys, wantKeys)
	}
	if got := doc["recoveredJobs"]; got != float64(2) {
		t.Errorf("recoveredJobs = %v, want 2", got)
	}
	if got := doc["diskDegraded"]; got != false {
		t.Errorf("diskDegraded = %v, want false", got)
	}
	if got := doc["journalRecords"]; got == float64(0) {
		t.Error("journalRecords = 0 after replaying two admitted jobs")
	}
	if got := doc["journalBytes"]; got == float64(0) {
		t.Error("journalBytes = 0 after replaying two admitted jobs")
	}
	if got := doc["storeEntries"]; got != float64(0) {
		t.Errorf("storeEntries = %v before any result persisted, want 0", got)
	}

	s2.Start()
	drainAll(t, s2)
	doc = gauges()
	if got := doc["storeEntries"]; got != float64(2) {
		t.Errorf("storeEntries = %v after both recovered jobs completed, want 2", got)
	}
	if got := doc["done"]; got != float64(2) {
		t.Errorf("done = %v, want 2", got)
	}

	close(gate)
	drainAll(t, s1)
}
