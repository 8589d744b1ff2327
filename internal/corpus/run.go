package corpus

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/trace"
)

// Outcome is the observable result of one (case, scheduler) cell —
// everything the invariant catalog and the golden store compare.  All
// fields are scalars so the canonical JSON encoding is trivially
// deterministic.
type Outcome struct {
	Scheduler string `json:"scheduler"`
	// Instance accounting per segment.
	StaticDelivered  int64 `json:"staticDelivered"`
	StaticDropped    int64 `json:"staticDropped"`
	DynamicDelivered int64 `json:"dynamicDelivered"`
	DynamicDropped   int64 `json:"dynamicDropped"`
	// Miss ratios (already weighted by the accounting above).
	StaticMissRatio  float64 `json:"staticMissRatio"`
	DynamicMissRatio float64 `json:"dynamicMissRatio"`
	OverallMissRatio float64 `json:"overallMissRatio"`
	// Wire statistics.
	Faults          int64   `json:"faults"`
	Retransmissions int64   `json:"retransmissions"`
	BandwidthUtil   float64 `json:"bandwidthUtil"`
	RawUtil         float64 `json:"rawUtil"`
	Cycles          int64   `json:"cycles"`
	// Adaptive-controller gauges.
	Replans   int64 `json:"replans,omitempty"`
	Failovers int64 `json:"failovers,omitempty"`
	Shed      int64 `json:"shed,omitempty"`
	// Clock-layer gauges.
	GuardianBlocks int64 `json:"guardianBlocks,omitempty"`
	SyncLossEvents int64 `json:"syncLossEvents,omitempty"`
	Halts          int64 `json:"halts,omitempty"`
	// TraceHash is the SHA-256 of the full bus trace JSON: the strongest
	// determinism witness the harness has.
	TraceHash string `json:"traceHash"`
}

// CaseResult is one case's differential outcome under all schedulers.
type CaseResult struct {
	Name     string    `json:"name"`
	Hash     string    `json:"hash"`
	Outcomes []Outcome `json:"outcomes"`
}

// RunOptions configures a corpus run.
type RunOptions struct {
	// Parallel is the worker count (0 = all cores, 1 = serial).  Results
	// are byte-identical at every value — checked by VerifyParallel.
	Parallel int
	// Ctx optionally bounds the run.
	Ctx context.Context
}

// Run executes every case under every scheduler on the deterministic
// parallel runner and returns per-case results in corpus order.  A case
// is one batch: its scheduler cells run back to back on one worker,
// sharing a single compiled simulation artifact (workload parsing,
// option validation, dispatch tables) instead of rebuilding it per
// scheduler.  Outcomes stay byte-identical to the per-cell rebuild —
// each cell's run state is freshly derived and seeded from the case
// document alone.
func Run(cases []*Case, opts RunOptions) ([]CaseResult, error) {
	nSched := len(Schedulers)
	sizes := make([]int, len(cases))
	for i := range sizes {
		sizes[i] = nSched
	}
	cells, err := runner.MapBatchCtx(opts.Ctx, opts.Parallel, sizes,
		func() (*caseState, error) { return &caseState{}, nil },
		func(st *caseState, b, i int) (Outcome, error) {
			return st.runCell(cases[b], Schedulers[i])
		})
	if err != nil {
		return nil, err
	}
	results := make([]CaseResult, len(cases))
	for i, c := range cases {
		hash, err := c.Hash()
		if err != nil {
			return nil, err
		}
		results[i] = CaseResult{
			Name:     c.Name,
			Hash:     hash,
			Outcomes: cells[i*nSched : (i+1)*nSched : (i+1)*nSched],
		}
	}
	return results, nil
}

// caseState is one worker's cache of the most recently compiled case:
// the scheduler cells of a batch all belong to the same case, so the
// expensive compile step (workload assembly, option validation, dispatch
// tables) runs once per case instead of once per cell.
type caseState struct {
	c        *Case
	set      signal.Set
	compiled *sim.Compiled
}

// runCell runs one case under one scheduler — a pure function of the
// Case document (the cached compiled artifact is itself a pure function
// of the case, and the run state is freshly derived per cell), which is
// what keeps outcomes independent of the parallelism degree.
func (st *caseState) runCell(c *Case, schedName string) (Outcome, error) {
	if st.c != c {
		set, cluster, setup, err := c.Compile()
		if err != nil {
			return Outcome{}, fmt.Errorf("%s/%s: %w", c.Name, schedName, err)
		}
		compiled, err := sim.Compile(sim.Options{
			Config:   setup.Config,
			Cluster:  cluster,
			Workload: set,
			BitRate:  setup.BitRate,
			Scenario: c.Scenario,
			Timing:   c.timingOptions(),
			Mode:     sim.Streaming,
			Duration: c.Horizon(),
		})
		if err != nil {
			return Outcome{}, fmt.Errorf("%s/%s: %w", c.Name, schedName, err)
		}
		st.c, st.set, st.compiled = c, set, compiled
	}
	sched, err := c.Scheduler(schedName, st.set)
	if err != nil {
		return Outcome{}, err
	}
	state, err := st.compiled.NewState(sched)
	if err != nil {
		return Outcome{}, fmt.Errorf("%s/%s: %w", c.Name, schedName, err)
	}
	rec := trace.New()
	if err := state.Reset(sim.ReplicaOptions{Seed: c.SimSeed, Sink: rec}); err != nil {
		return Outcome{}, fmt.Errorf("%s/%s: %w", c.Name, schedName, err)
	}
	res, err := state.Run()
	if err != nil {
		return Outcome{}, fmt.Errorf("%s/%s: %w", c.Name, schedName, err)
	}
	traceHash := sha256.New()
	if err := rec.WriteJSON(traceHash); err != nil {
		return Outcome{}, fmt.Errorf("%s/%s: trace hash: %w", c.Name, schedName, err)
	}
	r := res.Report
	return Outcome{
		Scheduler:        res.Scheduler,
		StaticDelivered:  r.Delivered[metrics.Static],
		StaticDropped:    r.Dropped[metrics.Static],
		DynamicDelivered: r.Delivered[metrics.Dynamic],
		DynamicDropped:   r.Dropped[metrics.Dynamic],
		StaticMissRatio:  r.DeadlineMissRatio[metrics.Static],
		DynamicMissRatio: r.DeadlineMissRatio[metrics.Dynamic],
		OverallMissRatio: r.OverallMissRatio(),
		Faults:           r.Faults,
		Retransmissions:  r.Retransmissions,
		BandwidthUtil:    r.BandwidthUtilization,
		RawUtil:          r.RawUtilization,
		Cycles:           res.Cycles,
		Replans:          r.Adaptive.Replans,
		Failovers:        r.Adaptive.Failovers,
		Shed:             r.Adaptive.ShedMessages,
		GuardianBlocks:   r.Sync.GuardianBlocks,
		SyncLossEvents:   r.Sync.SyncLossEvents,
		Halts:            r.Sync.Halts,
		TraceHash:        hex.EncodeToString(traceHash.Sum(nil)),
	}, nil
}

// CanonicalResults returns the canonical JSON encoding of a result set.
func CanonicalResults(results []CaseResult) ([]byte, error) {
	return json.MarshalIndent(results, "", "  ")
}

// VerifyParallel runs the corpus serially and at `parallel` workers and
// fails unless the two result sets are byte-identical — the corpus-level
// determinism invariant (parallel-identity).
func VerifyParallel(cases []*Case, parallel int, ctx context.Context) error {
	serial, err := Run(cases, RunOptions{Parallel: 1, Ctx: ctx})
	if err != nil {
		return fmt.Errorf("serial run: %w", err)
	}
	par, err := Run(cases, RunOptions{Parallel: parallel, Ctx: ctx})
	if err != nil {
		return fmt.Errorf("parallel run: %w", err)
	}
	a, err := CanonicalResults(serial)
	if err != nil {
		return err
	}
	b, err := CanonicalResults(par)
	if err != nil {
		return err
	}
	if string(a) != string(b) {
		return fmt.Errorf("corpus: results differ between parallel 1 and %d", parallel)
	}
	return nil
}
