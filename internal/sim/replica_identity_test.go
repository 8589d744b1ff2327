// TestReplicaTraceByteIdentity lives in the external test package so it
// can build the real paper schedulers (core, fspec), which import sim.
package sim_test

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
	"github.com/flexray-go/coefficient/internal/trace"
)

// testBER is the channel bit error rate the identity tests run under —
// high enough that faults, retransmissions and slack stealing all fire
// within the short horizon.
const testBER = 1e-6

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
