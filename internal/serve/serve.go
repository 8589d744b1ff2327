// Package serve turns the simulator into a long-running, fault-tolerant
// service: an HTTP control plane that admits scenario-simulation jobs
// into a bounded, criticality-tiered queue and a data plane of workers
// that execute them on the deterministic experiment runner
// (internal/runner, internal/experiment).
//
// The paper's core idea — cooperative scheduling that sheds load by
// criticality to keep reliability goals under faults — applies to the
// service itself, not just the simulated bus.  The control plane
// therefore degrades predictably instead of failing open:
//
//   - Admission control.  The job queue is bounded.  When it is full, a
//     new job may preempt the queue slot of a strictly lower-criticality
//     job (the evicted job is reported as shed — the same
//     lowest-criticality-first order internal/core uses to shed bus
//     traffic); if no lower-criticality victim exists, the submission is
//     rejected with a Retry-After hint.
//   - Deadlines.  Each job may carry a deadline, enforced through
//     context cancellation threaded into the runner: the sweep stops at
//     the next cell boundary once the deadline passes.
//   - Retries.  Transient failures are retried with exponential backoff
//     plus deterministic splitmix64-derived jitter (never wall-clock or
//     global-rand derived), so a retry timeline is a pure function of
//     (seed, scenario hash, failure schedule).
//   - Quarantine.  A worker panic is isolated per attempt; a scenario
//     hash that keeps panicking is quarantined after a configurable
//     number of failures instead of being retried forever, and further
//     submissions of that scenario are refused.
//   - Graceful drain.  On SIGTERM the daemon stops admitting, finishes
//     queued and in-flight jobs under a drain deadline, hard-cancels
//     whatever outruns it, and closes the journal.
//
// Results are stored once per canonical scenario hash; because the
// underlying runner is deterministic, a job's result is byte-identical
// to a serial offline run of the same scenario, which the chaostest
// suite asserts under injected panics, slow cells, and deadline storms.
package serve

import (
	"context"
	"fmt"
	"time"

	"github.com/flexray-go/coefficient/internal/serve/journal"
)

// Criticality orders jobs for admission control, mirroring the bus
// scheduler's shedding order: when the queue is full, low-criticality
// jobs lose their slots first.
type Criticality uint8

// Criticality levels, lowest first so the zero value is the first to be
// shed only if explicitly requested; the default for a submission that
// does not specify one is CritNormal.
const (
	CritLow Criticality = iota
	CritNormal
	CritHigh
	critLevels = 3
)

// String returns the wire name of the level.
func (c Criticality) String() string {
	switch c {
	case CritLow:
		return "low"
	case CritNormal:
		return "normal"
	case CritHigh:
		return "high"
	}
	return fmt.Sprintf("criticality(%d)", uint8(c))
}

// ParseCriticality maps a wire name to a level.  The empty string means
// CritNormal so submissions may omit the field.
func ParseCriticality(s string) (Criticality, error) {
	switch s {
	case "low":
		return CritLow, nil
	case "", "normal":
		return CritNormal, nil
	case "high":
		return CritHigh, nil
	}
	return CritNormal, fmt.Errorf("unknown criticality %q (want low, normal or high)", s)
}

// Hooks are chaos-injection points used by the chaostest harness.  Both
// are nil in production.
type Hooks struct {
	// BeforeAttempt runs at the start of every execution attempt, before
	// the simulation.  Returning an error fails the attempt (wrap it in
	// Transient to trigger a retry); panicking exercises the worker's
	// panic isolation; blocking until ctx is done models a slow cell.
	BeforeAttempt func(ctx context.Context, hash string, attempt int) error
}

// DiskPolicy decides how the daemon reacts when its durable state
// (journal or result store) suffers an I/O error.
type DiskPolicy uint8

const (
	// DiskDegrade (the default) drops to the in-memory store: the daemon
	// keeps serving, stops journaling, and surfaces diskDegraded on
	// /healthz.  Results computed while degraded are lost on restart.
	DiskDegrade DiskPolicy = iota
	// DiskFail refuses new work once durability is lost: submissions are
	// rejected with ErrDisk and /readyz reports not ready.  In-flight
	// jobs still finish in memory.
	DiskFail
)

// String returns the wire name of the policy.
func (p DiskPolicy) String() string {
	switch p {
	case DiskDegrade:
		return "degrade"
	case DiskFail:
		return "fail"
	}
	return fmt.Sprintf("diskpolicy(%d)", uint8(p))
}

// ParseDiskPolicy maps a flag value to a policy; the empty string means
// DiskDegrade.
func ParseDiskPolicy(s string) (DiskPolicy, error) {
	switch s {
	case "", "degrade":
		return DiskDegrade, nil
	case "fail":
		return DiskFail, nil
	}
	return DiskDegrade, fmt.Errorf("unknown disk policy %q (want degrade or fail)", s)
}

// Config parameterizes a Server.  The zero value is usable: New fills
// every field with the documented default.
type Config struct {
	// Workers is the data-plane worker count (default 2).
	Workers int
	// QueueCapacity bounds the admission queue (default 16).
	QueueCapacity int
	// Retry is the transient-failure retry policy.
	Retry RetryPolicy
	// QuarantineAfter is the number of panics a scenario hash may cause
	// before it is quarantined (default 3).
	QuarantineAfter int
	// RetryAfter is the hint returned with a 503 rejection (default 2s),
	// sent rounded up to whole seconds.
	RetryAfter time.Duration
	// StateDir, when set, enables crash-safe durability (DESIGN.md §12):
	// a write-ahead job journal at <StateDir>/journal.wal and a
	// persistent result store under <StateDir>/results/.  On startup the
	// journal is replayed: terminal jobs reappear on the status API,
	// persisted results are re-served from cache, and jobs that were
	// admitted or running at crash time are re-enqueued in their original
	// criticality+FIFO order.  Empty disables persistence entirely.
	StateDir string
	// DiskPolicy decides what a durable-state I/O error does (default
	// DiskDegrade: keep serving from memory, surface diskDegraded).
	DiskPolicy DiskPolicy
	// FS overrides the filesystem the durability layer writes through;
	// nil selects the real one.  The chaos suite injects journal.FaultFS
	// here.
	FS journal.FS
	// Sleep waits between retry attempts; nil selects a timer-based wait
	// that aborts when ctx is done.  Tests substitute an instant,
	// recording sleeper.
	Sleep func(ctx context.Context, d time.Duration) error
	// Hooks are the chaos-injection points (nil in production).
	Hooks Hooks
}

// fill applies the documented defaults.
func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 16
	}
	c.Retry.fill()
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 3
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.Sleep == nil {
		c.Sleep = sleepCtx
	}
}

// sleepCtx waits d on a timer, aborting early when ctx is done.  The
// duration comes from the deterministic retry policy; no wall-clock
// reads are involved.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
