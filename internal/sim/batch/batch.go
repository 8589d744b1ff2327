// Package batch orchestrates batched multi-seed replica sweeps: compile
// a scenario once (sim.Compile), then run hundreds of Monte-Carlo
// replicas against worker-owned reusable run states (sim.RunState) on
// the deterministic work-stealing pool (runner.MapBatchCtx).
//
// The output contract is the runner's: results come back grouped in
// spec order with replicas in seed order, byte-identical at every
// parallelism degree, because each replica is a pure function of
// (spec, seed) — the state rewind (Reset) erases everything the
// previous replica left behind, and all derived randomness is seeded
// from the replica's own seed.
package batch

import (
	"context"
	"fmt"

	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/sim"
)

// Spec is one batch of replicas: a compiled scenario and the seeds to
// run against it.
type Spec struct {
	// Options is the replica-independent simulation configuration.  It
	// must satisfy sim.Compile's contract: injectors and Sink unset
	// (they are per-replica, see Replica).
	Options sim.Options
	// CompileKey optionally shares one compiled artifact between specs:
	// specs with equal non-nil keys compile once.  Keys must be
	// comparable, and equal keys MUST imply equivalent Options — the
	// key is trusted, not checked.  Nil never shares.
	CompileKey any
	// NewScheduler builds the spec's scheduler, once per worker state.
	NewScheduler func() (sim.Scheduler, error)
	// Seeds lists the replica seeds, one run per entry.  Derive them
	// from the experiment's base seed (runner.CellSeed) — never by
	// additive offsets.
	Seeds []uint64
	// Replica optionally customizes a replica beyond its seed:
	// injectors and trace sinks.  prevA/prevB are the injectors of the
	// previous replica run by the same worker (nil for its first) so
	// implementations can Reseed and reuse them, keeping memoized
	// probability caches warm; they may originate from another Spec, so
	// check suitability (type, configuration) before reusing.  Nil
	// Replica means ReplicaOptions{Seed: seed}.
	Replica func(i int, seed uint64, prevA, prevB fault.Injector) (sim.ReplicaOptions, error)
}

// Run executes every spec's replicas on Workers(parallel) goroutines and
// returns the results grouped per spec, replicas in seed order.  Workers
// claim whole specs and run their replicas back to back on one reused
// run state, so replica r+1 pays a Reset instead of a full engine
// construction.  On error the lowest-indexed failing replica (in the
// flattened spec-major order) wins, as with runner.MapCtx.
func Run(ctx context.Context, parallel int, specs []Spec) ([][]sim.Result, error) {
	compiled := make([]*sim.Compiled, len(specs))
	byKey := make(map[any]*sim.Compiled)
	for i := range specs {
		if specs[i].NewScheduler == nil {
			return nil, fmt.Errorf("batch: spec %d has no NewScheduler", i)
		}
		if key := specs[i].CompileKey; key != nil {
			if c, ok := byKey[key]; ok {
				compiled[i] = c
				continue
			}
		}
		c, err := sim.Compile(specs[i].Options)
		if err != nil {
			return nil, fmt.Errorf("batch: spec %d: %w", i, err)
		}
		compiled[i] = c
		if key := specs[i].CompileKey; key != nil {
			byKey[key] = c
		}
	}
	sizes := make([]int, len(specs))
	for i := range specs {
		sizes[i] = len(specs[i].Seeds)
	}
	newWorker := func() (*worker, error) {
		return &worker{specs: specs, compiled: compiled, states: make(map[int]*sim.RunState)}, nil
	}
	flat, err := runner.MapBatchCtx(ctx, parallel, sizes, newWorker,
		func(w *worker, b, i int) (sim.Result, error) {
			return w.cell(b, i)
		})
	if err != nil {
		return nil, err
	}
	out := make([][]sim.Result, len(specs))
	off := 0
	for i := range specs {
		out[i] = flat[off : off+sizes[i] : off+sizes[i]]
		off += sizes[i]
	}
	return out, nil
}

// worker is one pool worker's private state: lazily built run states per
// spec and the previous replica's injectors for cache-warm reuse.
type worker struct {
	specs        []Spec
	compiled     []*sim.Compiled
	states       map[int]*sim.RunState
	prevA, prevB fault.Injector
}

// cell runs replica i of spec b on the worker's state for that spec.
func (w *worker) cell(b, i int) (sim.Result, error) {
	spec := &w.specs[b]
	st, ok := w.states[b]
	if !ok {
		sched, err := spec.NewScheduler()
		if err != nil {
			return sim.Result{}, fmt.Errorf("batch: spec %d scheduler: %w", b, err)
		}
		st, err = w.compiled[b].NewState(sched)
		if err != nil {
			return sim.Result{}, fmt.Errorf("batch: spec %d state: %w", b, err)
		}
		w.states[b] = st
	}
	seed := spec.Seeds[i]
	ro := sim.ReplicaOptions{Seed: seed}
	if spec.Replica != nil {
		var err error
		ro, err = spec.Replica(i, seed, w.prevA, w.prevB)
		if err != nil {
			return sim.Result{}, fmt.Errorf("batch: spec %d replica %d: %w", b, i, err)
		}
		w.prevA, w.prevB = ro.InjectorA, ro.InjectorB
	}
	return w.runReplica(st, ro)
}

// runReplica is the batched dispatch step: rewind the state to the
// replica's options and run it.  Everything the run consumes is either
// rewound here (arenas, counters, RNGs) or derived from ro.Seed, which
// is what keeps replica results independent of which worker ran the
// previous replica on this state.
//
//lint:deterministic
func (w *worker) runReplica(st *sim.RunState, ro sim.ReplicaOptions) (sim.Result, error) {
	if err := st.Reset(ro); err != nil {
		return sim.Result{}, err
	}
	return st.Run()
}
