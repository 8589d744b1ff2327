// Tests live in an external package so they can build the real paper
// schedulers (core, fspec) against the batch engine without an import
// cycle: core and fspec import sim, which the batch package wraps.
package batch_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/core"
	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/fspec"
	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/sim/batch"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/trace"
)

// testBER is the channel bit error rate the identity tests run under —
// high enough that faults, retransmissions and slack stealing all fire
// within the short horizon.
const testBER = 1e-6

// testConfig is a small 1 ms cycle: 10 static slots and a 200-macrotick
// dynamic segment, enough for both segments to carry traffic.
func testConfig() timebase.Config {
	return timebase.Config{
		MacrotickDuration:         time.Microsecond,
		MacroPerCycle:             1000,
		StaticSlots:               10,
		StaticSlotLen:             50,
		Minislots:                 40,
		MinislotLen:               5,
		DynamicSlotIdlePhase:      1,
		MinislotActionPointOffset: 1,
	}
}

// testSet is a mixed workload: three periodic signals across two nodes
// plus two aperiodic streams, so static slots, dynamic slots and the
// slack stealer all see work.
func testSet() signal.Set {
	return signal.Set{Name: "batch-test", Messages: []signal.Message{
		{ID: 1, Name: "s1", Node: 0, Kind: signal.Periodic,
			Period: 2 * time.Millisecond, Deadline: 2 * time.Millisecond, Bits: 64},
		{ID: 2, Name: "s2", Node: 1, Kind: signal.Periodic,
			Period: 4 * time.Millisecond, Deadline: 4 * time.Millisecond, Bits: 128},
		{ID: 3, Name: "s3", Node: 2, Kind: signal.Periodic,
			Period: 8 * time.Millisecond, Deadline: 8 * time.Millisecond, Bits: 64},
		{ID: 20, Name: "d20", Node: 2, Kind: signal.Aperiodic,
			Period: 5 * time.Millisecond, Deadline: 5 * time.Millisecond,
			Bits: 64, Priority: 1},
		{ID: 21, Name: "d21", Node: 0, Kind: signal.Aperiodic,
			Period: 7 * time.Millisecond, Deadline: 7 * time.Millisecond,
			Bits: 96, Priority: 2},
	}}
}

// testOptions is the replica-independent configuration shared by both
// sides of the differential: seed, injectors and sinks stay unset so the
// same value feeds sim.Compile and (after filling in the per-replica
// fields) the naive sim.Run.
func testOptions() sim.Options {
	return sim.Options{
		Config:   testConfig(),
		Workload: testSet(),
		Mode:     sim.Streaming,
		Duration: 40 * time.Millisecond,
	}
}

// testSchedulers enumerates every scheduler family the fig5 sweep ships:
// plain CoEfficient, adaptive CoEfficient, and the FSPEC baseline.
func testSchedulers() []struct {
	name string
	mk   func() (sim.Scheduler, error)
} {
	return []struct {
		name string
		mk   func() (sim.Scheduler, error)
	}{
		{"coefficient", func() (sim.Scheduler, error) {
			return core.New(core.Options{BER: testBER, Goal: 0.999, Unit: time.Second}), nil
		}},
		{"coefficient-adaptive", func() (sim.Scheduler, error) {
			return core.New(core.Options{BER: testBER, Goal: 0.999, Unit: time.Second, Adaptive: true}), nil
		}},
		{"fspec", func() (sim.Scheduler, error) {
			return fspec.New(fspec.Options{Copies: 2}), nil
		}},
	}
}

// replicaInjectors builds the per-channel BER injectors for a seed, the
// same derivation on the naive and batched sides.
func replicaInjectors(t *testing.T, seed uint64) (*fault.BERInjector, *fault.BERInjector) {
	t.Helper()
	a, err := fault.NewBERInjector(testBER, runner.CellSeed(seed, 'A'))
	if err != nil {
		t.Fatalf("injector A: %v", err)
	}
	b, err := fault.NewBERInjector(testBER, runner.CellSeed(seed, 'B'))
	if err != nil {
		t.Fatalf("injector B: %v", err)
	}
	return a, b
}

// traceJSON renders a recorder's full bus trace.
func traceJSON(t *testing.T, rec *trace.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestReplicaTraceByteIdentity is the strongest witness of the
// compiled/replica-state split: for every scheduler family, running
// seeds back to back on ONE reused RunState must produce bus traces
// byte-identical to a fresh engine per seed.  The seed list repeats its
// first entry at the end, so a replica polluted by its predecessor's
// state (arena not rewound, counter not zeroed, scheduler not reset)
// cannot pass.
func TestReplicaTraceByteIdentity(t *testing.T) {
	seeds := []uint64{3, 9, 3}
	for _, tc := range testSchedulers() {
		t.Run(tc.name, func(t *testing.T) {
			sched, err := tc.mk()
			if err != nil {
				t.Fatalf("scheduler: %v", err)
			}
			compiled, err := sim.Compile(testOptions())
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			state, err := compiled.NewState(sched)
			if err != nil {
				t.Fatalf("NewState: %v", err)
			}
			for i, seed := range seeds {
				// Naive side: everything rebuilt from scratch.
				naiveSched, err := tc.mk()
				if err != nil {
					t.Fatalf("scheduler: %v", err)
				}
				injA, injB := replicaInjectors(t, seed)
				naiveRec := trace.New()
				naiveOpts := testOptions()
				naiveOpts.Seed = seed
				naiveOpts.InjectorA, naiveOpts.InjectorB = injA, injB
				naiveOpts.Sink = naiveRec
				naiveRes, err := sim.Run(naiveOpts, naiveSched)
				if err != nil {
					t.Fatalf("seed %d: naive Run: %v", seed, err)
				}

				// Batched side: the state carries over from the previous
				// replica; only Reset separates them.
				injA2, injB2 := replicaInjectors(t, seed)
				rec := trace.New()
				if err := state.Reset(sim.ReplicaOptions{
					Seed: seed, InjectorA: injA2, InjectorB: injB2, Sink: rec,
				}); err != nil {
					t.Fatalf("seed %d: Reset: %v", seed, err)
				}
				res, err := state.Run()
				if err != nil {
					t.Fatalf("seed %d: batched Run: %v", seed, err)
				}

				if got, want := traceJSON(t, rec), traceJSON(t, naiveRec); !bytes.Equal(got, want) {
					t.Errorf("replica %d (seed %d): batched trace differs from naive (%d vs %d bytes)",
						i, seed, len(got), len(want))
				}
				if !reflect.DeepEqual(res.Report, naiveRes.Report) {
					t.Errorf("replica %d (seed %d): batched report differs from naive:\n got  %+v\n want %+v",
						i, seed, res.Report, naiveRes.Report)
				}
				if res.Cycles != naiveRes.Cycles || res.FaultsA != naiveRes.FaultsA || res.FaultsB != naiveRes.FaultsB {
					t.Errorf("replica %d (seed %d): batched result header differs from naive", i, seed)
				}
			}
		})
	}
}

// testSpecs builds one batch.Spec per scheduler family over the given
// seeds, sharing one compiled artifact via CompileKey and reseeding BER
// injectors per replica as the fig5 harness does.
func testSpecs(seeds []uint64) []batch.Spec {
	replica := func(_ int, seed uint64, prevA, prevB fault.Injector) (sim.ReplicaOptions, error) {
		a, okA := prevA.(*fault.BERInjector)
		b, okB := prevB.(*fault.BERInjector)
		if !okA || !okB || a.BER() != testBER || b.BER() != testBER {
			var err error
			if a, err = fault.NewBERInjector(testBER, 0); err != nil {
				return sim.ReplicaOptions{}, err
			}
			if b, err = fault.NewBERInjector(testBER, 0); err != nil {
				return sim.ReplicaOptions{}, err
			}
		}
		a.Reseed(runner.CellSeed(seed, 'A'))
		b.Reseed(runner.CellSeed(seed, 'B'))
		return sim.ReplicaOptions{Seed: seed, InjectorA: a, InjectorB: b}, nil
	}
	var specs []batch.Spec
	for _, tc := range testSchedulers() {
		specs = append(specs, batch.Spec{
			Options:      testOptions(),
			CompileKey:   "shared",
			NewScheduler: tc.mk,
			Seeds:        seeds,
			Replica:      replica,
		})
	}
	return specs
}

// TestBatchRunParallelIdentity checks the batch dispatcher's output
// contract: results grouped in spec order with replicas in seed order,
// byte-identical at parallelism 1 and 8, and equal to a naive fresh
// sim.Run per (spec, seed) cell.
func TestBatchRunParallelIdentity(t *testing.T) {
	seeds := make([]uint64, 4)
	for r := range seeds {
		seeds[r] = runner.CellSeed(11, uint64(r))
	}
	serial, err := batch.Run(nil, 1, testSpecs(seeds))
	if err != nil {
		t.Fatalf("batch.Run(parallel=1): %v", err)
	}
	parallel, err := batch.Run(nil, 8, testSpecs(seeds))
	if err != nil {
		t.Fatalf("batch.Run(parallel=8): %v", err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("batch.Run results differ between parallel 1 and 8")
	}
	if len(serial) != len(testSchedulers()) {
		t.Fatalf("groups = %d, want %d", len(serial), len(testSchedulers()))
	}
	for s, tc := range testSchedulers() {
		if len(serial[s]) != len(seeds) {
			t.Fatalf("%s: replicas = %d, want %d", tc.name, len(serial[s]), len(seeds))
		}
		for r, seed := range seeds {
			sched, err := tc.mk()
			if err != nil {
				t.Fatalf("scheduler: %v", err)
			}
			injA, injB := replicaInjectors(t, seed)
			opts := testOptions()
			opts.Seed = seed
			opts.InjectorA, opts.InjectorB = injA, injB
			want, err := sim.Run(opts, sched)
			if err != nil {
				t.Fatalf("%s seed %d: naive Run: %v", tc.name, seed, err)
			}
			if !reflect.DeepEqual(serial[s][r], want) {
				t.Errorf("%s replica %d (seed %d): batch.Run result differs from naive sim.Run", tc.name, r, seed)
			}
		}
	}
}
