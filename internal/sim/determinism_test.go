package sim_test

import (
	"bytes"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/fspec"
	"github.com/flexray-go/coefficient/internal/scenario"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/trace"
)

// Regression tests for the map-iteration bugs surfaced by the mapiter
// analyzer: dropExpired and the per-cycle slot-counter reset used to
// range over a map of ECUs keyed by node ID, so drop events for
// deadlines expiring at the same instant landed in the trace in Go's
// randomized map order and two identical runs could produce different
// trace files.  The ECUs now live only in ID-indexed tables walked by
// OrderedECUs.

// runFailedNodesTrace runs a workload in which two nodes die early, so
// both keep generating instances that expire as drops — often at the
// same macrotick, which is exactly where map-order iteration reshuffled
// the trace.
func runFailedNodesTrace(t *testing.T) *trace.Recorder {
	t.Helper()
	rec := trace.New()
	_, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: 60 * time.Millisecond,
		Seed:     11,
		Scenario: &scenario.Scenario{Nodes: []scenario.NodeEvent{
			{Node: 0, FailAt: scenario.Duration(5 * time.Millisecond)}, // owner of s1 (2ms period)
			{Node: 2, FailAt: scenario.Duration(5 * time.Millisecond)}, // owner of s5 (1ms period)
		}},
		Sink: rec,
	}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rec
}

// TestTraceByteDeterministicAcrossRuns runs the same configuration
// twice and requires the serialized traces to be byte-identical.
func TestTraceByteDeterministicAcrossRuns(t *testing.T) {
	var outs [2]bytes.Buffer
	for i := range outs {
		rec := runFailedNodesTrace(t)
		if err := rec.WriteJSON(&outs[i]); err != nil {
			t.Fatalf("run %d: WriteJSON: %v", i, err)
		}
		// Guard against vacuity: the run must actually produce drops on
		// both failed nodes for the ordering to be exercised.
		nodes := map[int]bool{}
		for _, ev := range rec.Filter(func(e trace.Event) bool {
			return e.Kind == trace.EventDrop
		}) {
			nodes[ev.Node] = true
		}
		if !nodes[0] || !nodes[2] {
			t.Fatalf("run %d: drops on nodes %v, want both 0 and 2", i, nodes)
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Error("identical runs produced different trace bytes")
	}
}

// TestOrderedECUs pins the iteration contract the engine and schedulers
// rely on: ascending node-ID order, one entry per node of the default
// cluster (nodes 0 up to the workload's highest message node), each the
// ECU the ID lookup returns, stable across calls.
func TestOrderedECUs(t *testing.T) {
	var captured *sim.Env
	_, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: time.Millisecond,
		Seed:     1,
	}, &envCapture{inner: fspec.New(fspec.Options{}), out: &captured})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ordered := captured.OrderedECUs()
	// mixedWorkload's messages sit on nodes 0–4.
	if len(ordered) != 5 {
		t.Fatalf("OrderedECUs has %d entries, want 5 (nodes 0–4)", len(ordered))
	}
	for i, ecu := range ordered {
		if ecu.ID != i {
			t.Fatalf("OrderedECUs[%d] is node %d, want ascending IDs 0–4", i, ecu.ID)
		}
		if captured.ECU(ecu.ID) != ecu {
			t.Fatalf("OrderedECUs[%d] is not ECU(%d)", i, ecu.ID)
		}
	}
	again := captured.OrderedECUs()
	for i := range ordered {
		if again[i] != ordered[i] {
			t.Fatal("OrderedECUs is not stable across calls")
		}
	}
}
