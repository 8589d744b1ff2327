package serve

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"

	"github.com/flexray-go/coefficient/internal/serve/journal"
)

// This file is the server side of the durability layer (DESIGN.md §12):
// opening the journal and persistent result store, journaling every
// state transition, replaying the journal through the recovery state
// machine at boot, and degrading to the in-memory store when the disk
// misbehaves.
//
// Write ordering is the whole contract:
//
//   - an `admitted` record is fsynced before Submit returns, so any job
//     a client was told about survives a crash;
//   - a result file is atomically persisted before the `done` record,
//     so a `done` in the journal implies the result is on disk — and a
//     `done` whose result is missing (crash in between, or a corrupt
//     file quarantined at load) simply downgrades to an interrupted job
//     that re-executes deterministically.

// openDurability opens (or creates) the state directory, loads the
// persistent results into the in-memory store, replays the journal
// through the recovery state machine, and compacts the journal to a
// fresh snapshot of the recovered state.  Corrupt records and corrupt
// result files never fail it; only real I/O errors do.
func (s *Server) openDurability() error {
	fsys := s.cfg.FS
	if fsys == nil {
		fsys = journal.OS()
	}
	if err := fsys.MkdirAll(s.cfg.StateDir); err != nil {
		return fmt.Errorf("state dir: %w", err)
	}
	disk, err := journal.OpenResultStore(fsys, filepath.Join(s.cfg.StateDir, "results"))
	if err != nil {
		return fmt.Errorf("result store: %w", err)
	}
	payloads, corrupt, err := disk.Load()
	if err != nil {
		return fmt.Errorf("result store: %w", err)
	}
	hashes := make([]string, 0, len(payloads))
	for h := range payloads {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	for _, hash := range hashes {
		var res Result
		if jerr := json.Unmarshal(payloads[hash], &res); jerr != nil || res.Hash != hash {
			// A checksum-valid file with an alien schema: skip it; any job
			// that needs it re-executes.
			corrupt++
			continue
		}
		if perr := s.store.Put(&res); perr != nil {
			return fmt.Errorf("seed store: %w", perr)
		}
	}

	jrn, replay, err := journal.Open(fsys, s.cfg.StateDir)
	if err != nil {
		return err
	}
	s.disk = disk
	s.jrn = jrn
	s.corruptFiles = corrupt
	s.journalTruncated = replay.TruncatedBytes
	s.recoverRecords(replay.Records)

	// Rewrite the journal as a snapshot of the recovered state: replayed
	// history collapses, rejected and corrupt records disappear, and the
	// next crash replays only live state.
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// recoverRecords is the recovery state machine: it folds the replayed
// records into per-job state, then reinstates every job — terminal jobs
// go straight to the status API (and quarantined hashes re-poison the
// quarantine), while jobs that were admitted or running at crash time
// are re-enqueued in their original criticality+FIFO order.  Execution
// is seed-deterministic, so a re-enqueued job reproduces the exact
// bytes an uninterrupted run would have stored.
//
//lint:deterministic
func (s *Server) recoverRecords(recs []journal.Record) {
	byID := make(map[string]*Job)
	var order []*Job // admission order, the deterministic re-enqueue order
	for _, rec := range recs {
		switch rec.Kind {
		case journal.KindAdmitted:
			var spec JobSpec
			if err := json.Unmarshal(rec.Spec, &spec); err != nil {
				// An admitted record whose spec does not decode cannot be
				// re-executed; drop the job rather than abort the boot.
				continue
			}
			crit, err := ParseCriticality(rec.Crit)
			if err != nil {
				crit = CritNormal
			}
			job := &Job{
				ID:       rec.JobID,
				Hash:     rec.Hash,
				Spec:     spec,
				Crit:     crit,
				Deadline: spec.Deadline.Std(),
				seq:      rec.Seq,
				state:    StateQueued,
			}
			if _, dup := byID[rec.JobID]; !dup {
				byID[rec.JobID] = job
				order = append(order, job)
			}
		case journal.KindRejected:
			// The submission was rolled back (no queue slot); it was never
			// acknowledged, so it does not exist after recovery.
			if job, ok := byID[rec.JobID]; ok {
				delete(byID, rec.JobID)
				for i, j := range order {
					if j == job {
						order = append(order[:i], order[i+1:]...)
						break
					}
				}
			}
		case journal.KindRunning:
			if job, ok := byID[rec.JobID]; ok && !job.state.Terminal() {
				job.state = StateRunning
			}
		case journal.KindAttempt:
			if job, ok := byID[rec.JobID]; ok {
				var a Attempt
				if err := json.Unmarshal(rec.Attempt, &a); err == nil {
					job.attempts = append(job.attempts, a)
				}
			}
		default:
			if st, ok := parseState(rec.Kind); ok && st.Terminal() {
				if job, jok := byID[rec.JobID]; jok && !job.state.Terminal() {
					job.state = st
					job.errMsg = rec.Error
				}
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, job := range order {
		if job.state == StateDone {
			if _, ok := s.store.Get(job.Hash); !ok {
				// The done record outlived its result (crash between rename
				// and append, or the file was corrupt): downgrade to an
				// interrupted job and recompute deterministically.
				job.state = StateQueued
				job.errMsg = ""
			}
		}
		s.jobs[job.ID] = job
		s.admitted++
		if job.seq > s.seq {
			s.seq = job.seq
		}
		if job.state.Terminal() {
			s.counts[job.state]++
			if job.state == StateQuarantined {
				s.quar.poison(job.Hash)
			}
			continue
		}
		// Interrupted: re-enqueue with a fresh retry budget.  order is
		// admission order, so per-tier FIFO positions are reconstructed
		// exactly.
		job.state = StateQueued
		job.attempts = nil
		s.counts[StateQueued]++
		s.q.forceEnqueue(job)
		s.recovered++
	}
}

// degradeLocked drops to the in-memory store after a durable-state I/O
// error: journaling and result persistence stop, diskDegraded surfaces
// on /healthz, and — under DiskFail — admission is refused.  Caller
// holds s.mu.
func (s *Server) degradeLocked(err error) {
	if s.diskDegraded {
		return
	}
	s.diskDegraded = true
	s.diskErr = err.Error()
	if s.jrn != nil {
		// The handle is already suspect; a close failure changes nothing.
		if cerr := s.jrn.Close(); cerr != nil {
			s.diskErr += "; " + cerr.Error()
		}
		s.jrnStats = journal.Stats{}
		s.jrn = nil
	}
	s.disk = nil
}

// journalLocked appends one record, handling degradation and
// compaction.  Caller holds s.mu; returns the append error only when
// the server still considers durability mandatory (DiskFail), so most
// call sites can ignore it.
func (s *Server) journalLocked(rec journal.Record) error {
	if s.jrn == nil {
		if s.diskDegraded {
			return ErrDisk
		}
		return nil
	}
	if err := s.jrn.Append(rec); err != nil {
		s.degradeLocked(err)
		return fmt.Errorf("%w: %v", ErrDisk, err)
	}
	s.jrnStats = s.jrn.Stats()
	if s.jrn.NeedsCompact() {
		if err := s.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}

// compactLocked rewrites the journal as a snapshot of the live jobs
// map, in admission order.  Caller holds s.mu.
func (s *Server) compactLocked() error {
	if s.jrn == nil {
		return nil
	}
	snapshot, err := s.snapshotLocked()
	if err != nil {
		s.degradeLocked(err)
		return fmt.Errorf("%w: %v", ErrDisk, err)
	}
	if err := s.jrn.Compact(snapshot); err != nil {
		s.degradeLocked(err)
		return fmt.Errorf("%w: %v", ErrDisk, err)
	}
	s.jrnStats = s.jrn.Stats()
	return nil
}

// snapshotLocked renders the jobs map as the minimal record sequence
// that replays to the current state: per job (in admission order) one
// admitted record, its attempts, and its terminal record if it has one.
// A running job snapshots as admitted — on replay that re-enqueues it,
// which is exactly what a crash at this instant should do.
func (s *Server) snapshotLocked() ([]journal.Record, error) {
	jobs := make([]*Job, 0, len(s.jobs))
	for _, job := range s.jobs {
		jobs = append(jobs, job)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	recs := make([]journal.Record, 0, len(jobs))
	for _, job := range jobs {
		adm, err := admittedRecord(job)
		if err != nil {
			return nil, err
		}
		recs = append(recs, adm)
		for _, a := range job.attempts {
			ar, err := attemptRecord(job, a)
			if err != nil {
				return nil, err
			}
			recs = append(recs, ar)
		}
		if job.state.Terminal() {
			recs = append(recs, journal.Record{Kind: job.state.String(), JobID: job.ID, Error: job.errMsg})
		}
	}
	return recs, nil
}

// admittedRecord renders the admission record carrying everything
// recovery needs to reconstruct and re-execute the job.
func admittedRecord(job *Job) (journal.Record, error) {
	spec, err := json.Marshal(job.Spec)
	if err != nil {
		return journal.Record{}, fmt.Errorf("encode spec of %s: %w", job.ID, err)
	}
	return journal.Record{
		Kind:  journal.KindAdmitted,
		Seq:   job.seq,
		JobID: job.ID,
		Hash:  job.Hash,
		Crit:  job.Crit.String(),
		Spec:  spec,
	}, nil
}

// attemptRecord renders one retry-timeline entry.
func attemptRecord(job *Job, a Attempt) (journal.Record, error) {
	data, err := json.Marshal(a)
	if err != nil {
		return journal.Record{}, fmt.Errorf("encode attempt of %s: %w", job.ID, err)
	}
	return journal.Record{Kind: journal.KindAttempt, JobID: job.ID, Attempt: data}, nil
}

// persistResult writes res to the persistent result store, before the
// done record is journaled.  A persistence failure degrades durability
// but never fails the job: the result is already correct in memory.
func (s *Server) persistResult(res *Result) {
	s.mu.Lock()
	disk := s.disk
	s.mu.Unlock()
	if disk == nil {
		return
	}
	payload, err := json.Marshal(res)
	if err == nil {
		err = disk.Put(res.Hash, payload)
	}
	if err != nil {
		s.mu.Lock()
		s.degradeLocked(err)
		s.mu.Unlock()
	}
}
