package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"github.com/flexray-go/coefficient/internal/experiment"
	"github.com/flexray-go/coefficient/internal/scenario"
)

// JobSpec is the wire form of one simulation job: which scenario to run
// under the graceful-degradation harness, and how the service should
// treat the job (criticality, deadline).  Unknown fields are rejected at
// decode time so client typos surface as 400s, like the scenario DSL.
type JobSpec struct {
	// Scenario is the fault timeline to simulate; nil selects the
	// built-in BER-step-plus-blackout degradation scenario.
	Scenario *scenario.Scenario `json:"scenario,omitempty"`
	// Seed drives arrivals and fault injection.
	Seed uint64 `json:"seed"`
	// Quick shrinks the simulated horizon for smoke jobs.
	Quick bool `json:"quick,omitempty"`
	// Setting selects the reliability goal: "BER-7" (default) or "BER-9".
	Setting string `json:"setting,omitempty"`
	// Minislots is the dynamic segment size (default 50).
	Minislots int `json:"minislots,omitempty"`
	// Parallel is the in-job sweep worker count (0 = all cores).  The
	// result is byte-identical for every value, so it does not
	// participate in the scenario hash.
	Parallel int `json:"parallel,omitempty"`
	// Criticality is "low", "normal" (default) or "high"; it decides who
	// sheds whom when the admission queue is full.
	Criticality string `json:"criticality,omitempty"`
	// Deadline bounds the job's wall-clock execution ("500ms", "30s").
	// Zero means no deadline.
	Deadline scenario.Duration `json:"deadline,omitempty"`
}

// Validate checks the spec's semantic rules.
func (s *JobSpec) Validate() error {
	if s.Scenario != nil {
		if err := s.Scenario.Validate(); err != nil {
			return err
		}
	}
	switch s.Setting {
	case "", "BER-7", "BER-9":
	default:
		return fmt.Errorf("unknown setting %q (want BER-7 or BER-9)", s.Setting)
	}
	if s.Minislots < 0 {
		return fmt.Errorf("minislots %d negative", s.Minislots)
	}
	if s.Parallel < 0 {
		return fmt.Errorf("parallel %d negative", s.Parallel)
	}
	if _, err := ParseCriticality(s.Criticality); err != nil {
		return err
	}
	if s.Deadline < 0 {
		return fmt.Errorf("deadline %v negative", s.Deadline.Std())
	}
	return nil
}

// setting maps the wire label to the experiment setting.
func (s *JobSpec) setting() experiment.Scenario {
	if s.Setting == "BER-9" {
		return experiment.BER9()
	}
	return experiment.BER7()
}

// CanonicalHash returns the result-store key: a SHA-256 over the
// canonical JSON encoding of exactly the fields that determine the
// simulation's output.  Parallel, criticality and deadline are excluded
// — the runner's determinism contract makes the result byte-identical
// across parallelism degrees, and the service knobs do not touch the
// simulation at all — so two submissions that must produce the same
// table always share a cache entry.  encoding/json writes map keys in
// sorted order, which makes the scenario encoding canonical.
func (s *JobSpec) CanonicalHash() (string, error) {
	canonical := struct {
		Scenario  *scenario.Scenario `json:"scenario"`
		Seed      uint64             `json:"seed"`
		Quick     bool               `json:"quick"`
		Setting   string             `json:"setting"`
		Minislots int                `json:"minislots"`
	}{s.Scenario, s.Seed, s.Quick, s.setting().Label, s.Minislots}
	data, err := json.Marshal(canonical)
	if err != nil {
		return "", fmt.Errorf("hash spec: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// State is a job's position in the service's state machine.
type State uint8

// Job states.  StateQueued and StateRunning are transient; the rest are
// terminal — every admitted job reaches exactly one terminal state
// (the no-job-lost / no-double-report invariant the chaostest suite
// asserts).
const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued State = iota
	// StateRunning: a worker is executing the job.
	StateRunning
	// StateDone: the result is in the store.
	StateDone
	// StateFailed: the run returned an error, its deadline expired, or
	// a forced drain cancelled it.
	StateFailed
	// StateShed: evicted from the queue by a higher-criticality
	// admission.
	StateShed
	// StateQuarantined: the job's run panicked; its scenario hash is
	// now refused.
	StateQuarantined
	stateCount
)

// String returns the wire name of the state.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateShed:
		return "shed"
	case StateQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateShed || s == StateQuarantined
}

// Job is one admitted submission.  All mutable fields are guarded by the
// owning Server's mutex; workers and handlers never touch them directly.
type Job struct {
	// ID identifies the job ("j3-ab12cd34"): a submission sequence
	// number plus a scenario-hash prefix, deterministic across runs.
	ID string
	// Hash is the canonical scenario hash (the result-store key).
	Hash string
	// Spec is the submitted spec.
	Spec JobSpec
	// Crit is the parsed criticality.
	Crit Criticality
	// Deadline is the parsed per-job deadline (0 = none).
	Deadline time.Duration

	// seq is the admission sequence number the ID embeds; it defines the
	// deterministic re-enqueue order after a crash.
	seq int

	// state and errMsg are guarded by the Server's mutex.
	state  State
	errMsg string
}

// parseState maps a wire name back to a State, the inverse of String
// for the real states (recovery replays journal records by wire name).
func parseState(s string) (State, bool) {
	for st := State(0); st < stateCount; st++ {
		if st.String() == s {
			return st, true
		}
	}
	return 0, false
}
