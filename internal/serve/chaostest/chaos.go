// Package chaostest stresses the simulation daemon with injected worker
// panics, slow cells, and deadline storms, and checks the
// fault-tolerance invariants the daemon promises (DESIGN.md §11):
//
//   - no job lost: every admitted job reaches exactly one terminal state;
//   - no double-report: no job transitions terminal→terminal, and the
//     write-once result store records no conflicting tables;
//   - drain always terminates: graceful when workers finish in time,
//     forced (in-flight cancelled) when they do not;
//   - surviving results are byte-identical to a serial offline run.
//
// The harness is deliberately deterministic: fault decisions are drawn
// from a splitmix64 stream keyed by (plan seed, scenario hash, attempt),
// never from wall-clock time or the global rand source, so a failing
// chaos run replays exactly.  The daemon runs each job once, so the
// attempt the stream is keyed by is always 1.
package chaostest

import (
	"context"
	"fmt"
	"sync"

	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/serve"
)

// Fault is one injected misbehaviour mode.
type Fault int

const (
	// FaultNone lets the attempt run normally.
	FaultNone Fault = iota
	// FaultPanic makes the worker panic mid-attempt.
	FaultPanic
	// FaultSlow wedges the attempt until its context is cancelled — a
	// stuck cell that only a deadline or drain can free.
	FaultSlow
)

// String names the fault for test diagnostics.
func (f Fault) String() string {
	switch f {
	case FaultPanic:
		return "panic"
	case FaultSlow:
		return "slow"
	}
	return "none"
}

// Plan decides, deterministically from its seed, which fault each
// (scenario, attempt) pair suffers.
type Plan struct {
	// Seed keys the fault stream.  The same seed over the same job set
	// replays the same faults.
	Seed uint64
	// PanicPct and SlowPct are percentage weights for each fault mode;
	// the remainder of the 100-point scale is FaultNone.
	PanicPct, SlowPct uint64
	// Poisoned marks scenario hashes that panic on every attempt,
	// regardless of the weights — the quarantine trigger.
	Poisoned map[string]bool
}

// fault draws the fault for one attempt.
func (p Plan) fault(hash string, attempt int) Fault {
	if p.Poisoned[hash] {
		return FaultPanic
	}
	draw := runner.CellSeed(p.Seed, foldHash(hash), uint64(attempt)) % 100
	switch {
	case draw < p.PanicPct:
		return FaultPanic
	case draw < p.PanicPct+p.SlowPct:
		return FaultSlow
	}
	return FaultNone
}

// foldHash reduces a scenario hash to a stream word (FNV-style fold; the
// exact mixing does not matter, only that it is deterministic).
func foldHash(hash string) uint64 {
	var w uint64 = 14695981039346656037
	for i := 0; i < len(hash); i++ {
		w = w*1099511628211 ^ uint64(hash[i])
	}
	return w
}

// Harness wires a fault Plan into a daemon's attempt hook and counts
// what it injected.
type Harness struct {
	// Server is the daemon under chaos.  Start, Submit and Drain it as
	// usual.
	Server *serve.Server

	mu       sync.Mutex
	injected map[Fault]int
}

// New builds a daemon from cfg with the plan's faults injected before
// every attempt.  A BeforeAttempt hook already present in cfg still runs,
// after the injector declines to fault.  The error is serve.New's —
// non-nil only when cfg requests durable state that cannot be opened.
func New(cfg serve.Config, plan Plan) (*Harness, error) {
	h := &Harness{injected: make(map[Fault]int)}
	prev := cfg.Hooks.BeforeAttempt
	cfg.Hooks.BeforeAttempt = func(ctx context.Context, hash string, attempt int) error {
		f := plan.fault(hash, attempt)
		h.note(f)
		switch f {
		case FaultPanic:
			panic(fmt.Sprintf("chaos: injected panic (%s attempt %d)", hash[:8], attempt))
		case FaultSlow:
			<-ctx.Done()
			return ctx.Err()
		}
		if prev != nil {
			return prev(ctx, hash, attempt)
		}
		return nil
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	h.Server = srv
	return h, nil
}

func (h *Harness) note(f Fault) {
	if f == FaultNone {
		return
	}
	h.mu.Lock()
	h.injected[f]++
	h.mu.Unlock()
}

// Injected reports how many attempts suffered the given fault.
func (h *Harness) Injected(f Fault) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.injected[f]
}

// CheckInvariants returns a description of every fault-tolerance
// invariant the drained daemon violates, empty when all hold.  Call it
// only after Drain has returned.
func (h *Harness) CheckInvariants() []string {
	st := h.Server.Stats()
	var bad []string
	terminal := st.Done + st.Failed + st.Shed + st.Quarantined
	if st.Admitted != terminal {
		bad = append(bad, fmt.Sprintf("job lost: admitted %d but only %d terminal", st.Admitted, terminal))
	}
	if st.Queued != 0 || st.Running != 0 {
		bad = append(bad, fmt.Sprintf("jobs stranded after drain: %d queued, %d running", st.Queued, st.Running))
	}
	if st.DoubleReports != 0 {
		bad = append(bad, fmt.Sprintf("%d double-reported terminal transitions", st.DoubleReports))
	}
	if st.StoreConflicts != 0 {
		bad = append(bad, fmt.Sprintf("%d conflicting result-store writes", st.StoreConflicts))
	}
	return bad
}
