package sim_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/scenario"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/trace"

	"github.com/flexray-go/coefficient/internal/fspec"
)

// Node 2 (owner of s5, the 1ms-period message) dies at 20ms and rejoins at
// 50ms: only the outage's ~30 instances may expire; everything released
// after recovery delivers again.
func TestNodeFailureRecovery(t *testing.T) {
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: 100 * time.Millisecond,
		Seed:     1,
		NodeFailures: map[int]timebase.Macrotick{
			2: 20_000,
		},
		NodeRecoveries: map[int]timebase.Macrotick{
			2: 50_000,
		},
	}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	if r.Dropped[metrics.Static] < 20 || r.Dropped[metrics.Static] > 40 {
		t.Errorf("static drops = %d, want ≈30 (the 20–50ms outage only)",
			r.Dropped[metrics.Static])
	}
	// TestPermanentNodeFailure loses ~80 s5 instances over the same horizon;
	// recovery must claw back the 50–100ms half.
	if r.Delivered[metrics.Static] < 130 {
		t.Errorf("static deliveries = %d: node did not resume after recovery",
			r.Delivered[metrics.Static])
	}
	if r.DeadlineMissRatio[metrics.Dynamic] != 0 {
		t.Errorf("dynamic traffic affected by an unrelated node outage: %g",
			r.DeadlineMissRatio[metrics.Dynamic])
	}
}

func TestNodeRecoveryValidation(t *testing.T) {
	base := func() sim.Options {
		return sim.Options{
			Config:   testConfig(),
			Workload: mixedWorkload(),
			Mode:     sim.Streaming,
			Duration: time.Millisecond,
		}
	}

	opts := base()
	opts.NodeRecoveries = map[int]timebase.Macrotick{1: 5_000}
	if _, err := sim.Run(opts, fspec.New(fspec.Options{})); !errors.Is(err, sim.ErrBadOptions) {
		t.Errorf("recovery without a failure accepted: %v", err)
	}

	opts = base()
	opts.NodeFailures = map[int]timebase.Macrotick{1: 5_000}
	opts.NodeRecoveries = map[int]timebase.Macrotick{1: 5_000}
	if _, err := sim.Run(opts, fspec.New(fspec.Options{})); !errors.Is(err, sim.ErrBadOptions) {
		t.Errorf("recovery not after failure accepted: %v", err)
	}
}

// engineScenario scripts a channel-A blackout plus a node-2 outage with
// recovery, mirroring the NodeFailures/NodeRecoveries test above but driven
// entirely through the scenario DSL.
func engineScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	scn, err := scenario.Parse([]byte(`{
		"name": "engine-test",
		"channels": {
			"A": {
				"baseBER": 1e-7,
				"blackouts": [{"start": "60ms", "end": "70ms"}]
			}
		},
		"nodes": [
			{"node": 2, "failAt": "20ms", "recoverAt": "50ms"}
		]
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return scn
}

func TestScenarioDrivenRun(t *testing.T) {
	rec := trace.New()
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: 100 * time.Millisecond,
		Seed:     1,
		Sink:     rec,
		Scenario: engineScenario(t),
	}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report

	// The scripted node outage behaves exactly like the option-based one.
	if r.Dropped[metrics.Static] < 20 || r.Dropped[metrics.Static] > 40 {
		t.Errorf("static drops = %d, want ≈30 from the scripted outage",
			r.Dropped[metrics.Static])
	}
	downs := rec.Filter(func(ev trace.Event) bool {
		return ev.Kind == trace.EventNodeDown && ev.Node == 2
	})
	ups := rec.Filter(func(ev trace.Event) bool {
		return ev.Kind == trace.EventNodeUp && ev.Node == 2
	})
	if len(downs) != 1 || len(ups) != 1 {
		t.Fatalf("node 2 down/up events = %d/%d, want 1/1", len(downs), len(ups))
	}
	if downs[0].Time > ups[0].Time {
		t.Errorf("node-down at %d after node-up at %d", downs[0].Time, ups[0].Time)
	}

	// Every channel-A transmission inside the blackout is faulted with the
	// blackout detail; FSPEC duplicates on B, so nothing is lost end to end.
	bo := rec.Filter(func(ev trace.Event) bool {
		return ev.Kind == trace.EventFault && ev.Detail == "blackout"
	})
	if len(bo) == 0 {
		t.Fatal("no blackout faults recorded")
	}
	for _, ev := range bo {
		if ev.Channel != frame.ChannelA {
			t.Fatalf("blackout fault on channel %v, want A only", ev.Channel)
		}
		if ev.Time < 60_000 || ev.Time >= 70_500 {
			t.Fatalf("blackout fault at t=%d outside the scripted window", ev.Time)
		}
	}
	aEnd := rec.Filter(func(ev trace.Event) bool {
		return ev.Kind == trace.EventTxEnd && ev.Channel == frame.ChannelA &&
			ev.Time >= 60_000 && ev.Time < 70_000
	})
	if len(aEnd) != 0 {
		t.Errorf("%d channel-A deliveries inside the blackout", len(aEnd))
	}
}

// Identical seed and scenario must reproduce the trace byte for byte: the
// whole scenario engine is seeded-RNG pure.
func TestScenarioTraceByteIdentical(t *testing.T) {
	run := func() []byte {
		rec := trace.New()
		_, err := sim.Run(sim.Options{
			Config:   testConfig(),
			Workload: mixedWorkload(),
			Mode:     sim.Streaming,
			Duration: 100 * time.Millisecond,
			Seed:     42,
			Sink:     rec,
			Scenario: degradedScenario(t),
		}, fspec.New(fspec.Options{}))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var buf bytes.Buffer
		if err := rec.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Fatal("identical seed+scenario produced different trace bytes")
	}
	if len(first) == 0 {
		t.Fatal("empty trace")
	}
}

// degradedScenario exercises every injector kind at once: ramp, step,
// Gilbert–Elliott burst, and a blackout, on both channels.
func degradedScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	scn, err := scenario.Parse([]byte(`{
		"name": "degraded",
		"channels": {
			"A": {
				"baseBER": 1e-7,
				"ramps": [{"start": "10ms", "end": "20ms", "from": 1e-7, "to": 2e-4}],
				"steps": [{"start": "40ms", "ber": 2e-4}],
				"blackouts": [{"start": "25ms", "end": "30ms"}]
			},
			"B": {
				"baseBER": 1e-7,
				"bursts": [{"start": "50ms", "end": "60ms",
					"berGood": 1e-7, "berBad": 1e-2,
					"pGoodToBad": 0.2, "pBadToGood": 0.4}]
			}
		}
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return scn
}
