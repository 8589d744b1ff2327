package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"github.com/flexray-go/coefficient/internal/experiment"
)

// workerLoop is one data-plane worker: pop, run, repeat until the queue
// is closed and drained.
func (s *Server) workerLoop() {
	for {
		job, ok := s.q.pop()
		if !ok {
			return
		}
		s.runJob(job)
	}
}

// runJob runs the job's one panic-isolated attempt and moves it to its
// terminal state.  A run is a pure function of the spec, so a failed
// attempt would fail the same way again: any error — spec or setup
// errors, deadline expiry, drain cancellation — fails the job, and a
// recovered panic quarantines the scenario hash on the spot.
func (s *Server) runJob(job *Job) {
	ctx := s.runCtx
	if job.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.Deadline)
		defer cancel()
	}
	s.transition(job, StateRunning, "")

	rows, err := s.attempt(ctx, job)
	var pe *panicError
	switch {
	case errors.As(err, &pe):
		s.quar.poison(job.Hash)
		s.transition(job, StateQuarantined, "scenario quarantined: "+err.Error())
		return
	case err != nil:
		s.transition(job, StateFailed, err.Error())
		return
	}
	res := &Result{
		Hash:  job.Hash,
		JobID: job.ID,
		Rows:  rows,
		Table: experiment.DegradationTable(rows).String(),
	}
	if perr := s.store.Put(res); perr != nil {
		// A conflicting result is a determinism violation; surface it on
		// the job.
		s.transition(job, StateFailed, perr.Error())
		return
	}
	// Persist the result BEFORE the done record: a done in the journal
	// must imply the result file exists (recovery downgrades a done
	// without a result to a re-enqueue).
	s.persistResult(res)
	s.transition(job, StateDone, "")
}

// attempt executes the job's panic-isolated run: the chaos hook first
// (so injected panics and slow cells exercise the same recovery paths
// real ones would), then the degradation harness on the deterministic
// runner with the job's context threaded through.
func (s *Server) attempt(ctx context.Context, job *Job) (rows []experiment.DegradationRow, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{value: fmt.Sprint(r), stack: debug.Stack()}
		}
	}()
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("job %s: %w", job.ID, cerr)
	}
	if h := s.cfg.Hooks.BeforeAttempt; h != nil {
		if herr := h(ctx, job.Hash, 1); herr != nil {
			return nil, herr
		}
	}
	return experiment.Degradation(experiment.DegradationOptions{
		Scenario:  job.Spec.Scenario,
		Setting:   job.Spec.setting(),
		Seed:      job.Spec.Seed,
		Quick:     job.Spec.Quick,
		Minislots: job.Spec.Minislots,
		Parallel:  job.Spec.Parallel,
		Ctx:       ctx,
	})
}

// panicError is the error form of a recovered worker panic: the panic
// value plus the panicking goroutine's stack, so a poisoned scenario is
// diagnosable from the job status alone.
type panicError struct {
	value string
	stack []byte
}

// Error implements error.
func (e *panicError) Error() string {
	return fmt.Sprintf("worker panicked: %s\n%s", e.value, e.stack)
}
