package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"github.com/flexray-go/coefficient/internal/scenario"
	"github.com/flexray-go/coefficient/internal/serve/journal"
)

// Server is the simulation daemon: admission control, worker pool,
// result store, and the HTTP API.  Create one with New, launch the
// workers with Start, expose Handler over HTTP, and stop with Drain.
type Server struct {
	cfg   Config
	q     *queue
	store *Store
	quar  *quarantine
	// retryAfter is the Retry-After header both 503 paths send:
	// cfg.RetryAfter rounded up, so a positive hint is never below 1s.
	retryAfter string

	// runCtx is the execution context every job attempt derives from;
	// runCancel is the drain deadline's hard stop.
	runCtx    context.Context
	runCancel context.CancelFunc

	// workersDone closes when every worker has exited.
	workersDone chan struct{}

	mu            sync.Mutex
	jobs          map[string]*Job
	seq           int
	counts        [stateCount]int
	admitted      int
	draining      bool
	started       bool
	doubleReports int

	// Durability state (nil / zero when Config.StateDir is empty).
	jrn              *journal.Journal
	disk             *journal.ResultStore
	jrnStats         journal.Stats
	diskDegraded     bool
	diskErr          string
	recovered        int
	corruptFiles     int
	journalTruncated int
}

// New builds a Server from cfg (zero-value fields get defaults).  With
// Config.StateDir set it also opens the durability layer and replays
// the journal — corrupt state on disk never fails it (torn tails and
// bad records are quarantined), but a real I/O error does under
// DiskFail; under DiskDegrade the server comes up memory-only with
// diskDegraded surfaced on /healthz.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		q:           newQueue(cfg.QueueCapacity),
		store:       NewStore(),
		quar:        newQuarantine(cfg.QuarantineAfter),
		retryAfter:  strconv.Itoa(int(math.Ceil(cfg.RetryAfter.Seconds()))),
		runCtx:      ctx,
		runCancel:   cancel,
		workersDone: make(chan struct{}),
		jobs:        make(map[string]*Job),
	}
	if cfg.StateDir != "" {
		if err := s.openDurability(); err != nil {
			if cfg.DiskPolicy == DiskFail {
				cancel()
				return nil, fmt.Errorf("serve: open durable state: %w", err)
			}
			s.mu.Lock()
			s.degradeLocked(err)
			s.mu.Unlock()
		}
	}
	return s, nil
}

// Store exposes the result store (read access for callers embedding the
// server in tests or tools).
func (s *Server) Store() *Store { return s.store }

// Start launches the worker pool.  It may be called once.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.workerLoop()
		}()
	}
	done := s.workersDone
	go func() {
		wg.Wait()
		close(done)
	}()
}

// Drain performs the graceful shutdown: stop admitting, let the workers
// finish every queued and in-flight job, and close the journal.  When
// ctx expires first, in-flight attempts are hard-cancelled (they stop at
// the next cell boundary or retry sleep) and the remaining queued jobs
// fail fast, so the drain still terminates; the journal is closed
// either way and ctx's error is returned to signal the forced stop.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	started := s.started
	s.mu.Unlock()
	if !alreadyDraining {
		s.q.close()
	}
	var forced error
	if started {
		select {
		case <-s.workersDone:
		case <-ctx.Done():
			forced = ctx.Err()
			s.runCancel()
			<-s.workersDone
		}
	}
	// Close the journal last: every terminal transition the drain produced
	// is already appended, so the final sync makes the shutdown state
	// durable.  A close failure is only reported when the drain itself
	// succeeded — the forced-stop error stays the primary signal.
	s.mu.Lock()
	jrn := s.jrn
	s.jrn = nil
	s.mu.Unlock()
	if jrn != nil {
		if err := jrn.Close(); err != nil && forced == nil {
			return fmt.Errorf("serve: close journal: %w", err)
		}
	}
	return forced
}

// Stats is the /healthz snapshot; its JSON form is the /healthz body.
type Stats struct {
	// Queued..Quarantined count jobs per state.
	Queued      int `json:"queued"`
	Running     int `json:"running"`
	Done        int `json:"done"`
	Failed      int `json:"failed"`
	Shed        int `json:"shed"`
	Quarantined int `json:"quarantined"`
	// QueueDepth is the current admission-queue occupancy.
	QueueDepth int `json:"queueDepth"`
	// Admitted counts every job that entered the queue.
	Admitted int `json:"admitted"`
	// Results counts distinct stored results.
	Results int `json:"results"`
	// DoubleReports counts attempted terminal-to-terminal transitions;
	// always zero unless the state machine is broken.
	DoubleReports int `json:"doubleReports"`
	// StoreConflicts counts conflicting result writes; always zero
	// unless determinism is broken.
	StoreConflicts int `json:"storeConflicts"`
	// Draining reports whether admission has stopped.
	Draining bool `json:"draining"`
	// Workers is the configured worker count.
	Workers int `json:"workers"`
	// QuarantinedHashes lists the poisoned scenario hashes, sorted.
	QuarantinedHashes []string `json:"quarantinedHashes"`

	// JournalRecords and JournalBytes size the live write-ahead journal;
	// both zero when the server runs without a state directory.
	JournalRecords int64 `json:"journalRecords"`
	JournalBytes   int64 `json:"journalBytes"`
	// StoreEntries counts result files in the persistent result store.
	StoreEntries int `json:"storeEntries"`
	// DiskDegraded reports that durable state was abandoned after an I/O
	// error; DiskError is that error.
	DiskDegraded bool   `json:"diskDegraded"`
	DiskError    string `json:"diskError,omitempty"`
	// RecoveredJobs counts interrupted jobs re-enqueued by journal replay
	// at boot.
	RecoveredJobs int `json:"recoveredJobs"`
	// CorruptFiles counts result files and journal records quarantined or
	// skipped at boot; JournalTruncatedBytes counts torn-tail bytes moved
	// to the .corrupt sidecar.
	CorruptFiles          int `json:"corruptFiles"`
	JournalTruncatedBytes int `json:"journalTruncatedBytes"`
}

// Stats returns a consistent snapshot of the service state.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Queued:        s.counts[StateQueued],
		Running:       s.counts[StateRunning],
		Done:          s.counts[StateDone],
		Failed:        s.counts[StateFailed],
		Shed:          s.counts[StateShed],
		Quarantined:   s.counts[StateQuarantined],
		Admitted:      s.admitted,
		DoubleReports: s.doubleReports,
		Draining:      s.draining,
		Workers:       s.cfg.Workers,

		JournalRecords:        s.jrnStats.Records,
		JournalBytes:          s.jrnStats.Bytes,
		DiskDegraded:          s.diskDegraded,
		DiskError:             s.diskErr,
		RecoveredJobs:         s.recovered,
		CorruptFiles:          s.corruptFiles,
		JournalTruncatedBytes: s.journalTruncated,
	}
	disk := s.disk
	s.mu.Unlock()
	if disk != nil {
		st.StoreEntries = disk.Entries()
	}
	st.QueueDepth = s.q.depth()
	st.Results = s.store.Len()
	st.StoreConflicts = s.store.Conflicts()
	st.QuarantinedHashes = s.quar.List()
	return st
}

// Job returns the job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// transition moves job to state `to`, enforcing the terminal-once
// invariant: a job already in a terminal state is never moved again
// (the attempt is counted as a double report instead), so no job can be
// reported completed twice.  Every transition is journaled in the order
// it is applied — the append happens under the same lock hold, so the
// journal replays to exactly the state sequence the server went
// through.
func (s *Server) transition(job *Job, to State, errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if job.state.Terminal() {
		s.doubleReports++
		return
	}
	s.counts[job.state]--
	s.counts[to]++
	job.state = to
	if errMsg != "" {
		job.errMsg = errMsg
	}
	rec := journal.Record{Kind: to.String(), JobID: job.ID}
	if to.Terminal() {
		rec.Error = errMsg
	}
	// A journal failure here degrades durability (journalLocked flips
	// diskDegraded) but cannot un-happen the transition.
	s.journalAfterTheFact(rec)
}

// journalAfterTheFact appends a record whose event has already been
// applied in memory: the only possible reaction to an append failure is
// the degradation journalLocked itself performs, so the error carries
// no extra information for the caller.
func (s *Server) journalAfterTheFact(rec journal.Record) {
	if err := s.journalLocked(rec); err != nil && !errors.Is(err, ErrDisk) {
		// journalLocked only returns ErrDisk-wrapped errors; this branch
		// exists to keep the contract honest if that ever changes.
		s.diskErr = err.Error()
	}
}

// recordAttempt appends one entry to the job's retry timeline.
func (s *Server) recordAttempt(job *Job, a Attempt) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job.attempts = append(job.attempts, a)
	if rec, err := attemptRecord(job, a); err == nil {
		s.journalAfterTheFact(rec)
	}
}

// Submit admits a spec programmatically (the HTTP handler and tests
// share this path).  Exactly one of the returns is meaningful:
// a cached *Result, an admitted *Job, or an error classified by the
// caller via errors.Is against ErrQueueFull / ErrQuarantined /
// ErrDraining.
func (s *Server) Submit(spec JobSpec) (*Job, *Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	hash, err := spec.CanonicalHash()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if res, ok := s.store.Get(hash); ok {
		return nil, res, nil
	}
	if s.quar.Quarantined(hash) {
		return nil, nil, fmt.Errorf("%w: scenario %s", ErrQuarantined, hash)
	}
	crit, err := ParseCriticality(spec.Criticality)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, nil, ErrDraining
	}
	if s.diskDegraded && s.cfg.DiskPolicy == DiskFail {
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %s", ErrDisk, s.diskErr)
	}
	s.seq++
	job := &Job{
		ID:       fmt.Sprintf("j%d-%s", s.seq, hash[:8]),
		Hash:     hash,
		Spec:     spec,
		Crit:     crit,
		Deadline: spec.Deadline.Std(),
		seq:      s.seq,
		state:    StateQueued,
	}
	s.jobs[job.ID] = job
	s.counts[StateQueued]++
	s.admitted++
	// The admitted record is fsynced before Submit returns: a 202 implies
	// the job survives a crash.  The spec marshalled for the hash above,
	// so admittedRecord cannot fail here.
	if rec, rerr := admittedRecord(job); rerr == nil {
		if jerr := s.journalLocked(rec); jerr != nil && s.cfg.DiskPolicy == DiskFail {
			// Durable admission is mandatory: unwind the registration and
			// refuse the job.  It never reached the queue.
			delete(s.jobs, job.ID)
			s.counts[StateQueued]--
			s.admitted--
			s.seq--
			s.mu.Unlock()
			return nil, nil, jerr
		}
	}
	s.mu.Unlock()

	evicted, ok := s.q.admit(job)
	if !ok {
		// Roll the registration back: the job never held a queue slot.
		// The admitted record is already on disk and cannot be unwritten;
		// a rejected record cancels it on replay.
		s.mu.Lock()
		delete(s.jobs, job.ID)
		s.counts[StateQueued]--
		s.admitted--
		s.journalAfterTheFact(journal.Record{Kind: journal.KindRejected, JobID: job.ID})
		s.mu.Unlock()
		return nil, nil, ErrQueueFull
	}
	if evicted != nil {
		s.transition(evicted, StateShed,
			fmt.Sprintf("evicted by higher-criticality job %s", job.ID))
	}
	return job, nil, nil
}

// Sentinel admission errors.
var (
	// ErrBadSpec rejects an invalid submission (HTTP 400).
	ErrBadSpec = errors.New("serve: invalid job spec")
	// ErrQueueFull rejects a submission with no evictable victim
	// (HTTP 503 + Retry-After).
	ErrQueueFull = errors.New("serve: queue full")
	// ErrQuarantined rejects a poisoned scenario (HTTP 409).
	ErrQuarantined = errors.New("serve: scenario quarantined")
	// ErrDraining rejects submissions during shutdown
	// (HTTP 503 + Retry-After).
	ErrDraining = errors.New("serve: draining")
	// ErrDisk rejects submissions while durable state is unavailable and
	// Config.DiskPolicy is DiskFail (HTTP 507).  Under DiskDegrade the
	// server keeps accepting work memory-only and this error never
	// reaches clients.
	ErrDisk = errors.New("serve: durable state unavailable")
)

// Handler returns the HTTP API:
//
//	POST /jobs            submit a JobSpec; 202 queued, 200 cached,
//	                      400 invalid, 409 quarantined, 503 full/draining
//	GET  /jobs/{id}       job status incl. retry timeline
//	GET  /results/{hash}  cached result by canonical scenario hash
//	GET  /healthz         liveness + stats (always 200 while serving)
//	GET  /readyz          200 accepting; 503 draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /results/{hash}", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// maxSpecBytes bounds a submission body; the scenario DSL is small.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	job, cached, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrBadSpec):
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrQuarantined):
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", s.retryAfter)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrDisk):
		writeJSON(w, http.StatusInsufficientStorage, map[string]string{"error": err.Error()})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	case cached != nil:
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "cached", "hash": cached.Hash, "result": cached,
		})
	default:
		writeJSON(w, http.StatusAccepted, map[string]string{
			"id": job.ID, "hash": job.Hash, "status": job.stateName(s),
		})
	}
}

// stateName reads the job's state under the server lock.
func (j *Job) stateName(s *Server) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.state.String()
}

// jobStatus is the GET /jobs/{id} document.
type jobStatus struct {
	ID          string            `json:"id"`
	Hash        string            `json:"hash"`
	State       string            `json:"state"`
	Criticality string            `json:"criticality"`
	Deadline    scenario.Duration `json:"deadline,omitempty"`
	Attempts    []Attempt         `json:"attempts,omitempty"`
	Error       string            `json:"error,omitempty"`
	Result      *Result           `json:"result,omitempty"`
}

// Status renders the job's current status document.
func (s *Server) Status(job *Job) jobStatus {
	s.mu.Lock()
	st := jobStatus{
		ID:          job.ID,
		Hash:        job.Hash,
		State:       job.state.String(),
		Criticality: job.Crit.String(),
		Deadline:    scenario.Duration(job.Deadline),
		Attempts:    append([]Attempt(nil), job.attempts...),
		Error:       job.errMsg,
	}
	done := job.state == StateDone
	s.mu.Unlock()
	if done {
		if res, ok := s.store.Get(job.Hash); ok {
			st.Result = res
		}
	}
	return st
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, s.Status(job))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, ok := s.store.Get(r.PathValue("hash"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown result"})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	diskDown := s.diskDegraded && s.cfg.DiskPolicy == DiskFail
	s.mu.Unlock()
	if draining || diskDown {
		w.Header().Set("Retry-After", s.retryAfter)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready": false, "draining": draining, "diskDegraded": diskDown,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "queueDepth": s.q.depth()})
}

// writeJSON emits one JSON response.  The encode error is deliberately
// only loggable by the HTTP layer (the status line is already written);
// a broken client connection must not fail the server.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The response is already committed; nothing useful remains.
		_ = err
	}
}
