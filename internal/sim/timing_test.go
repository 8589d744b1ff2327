package sim_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/core"
	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/scenario"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/trace"

	"github.com/flexray-go/coefficient/internal/fspec"
)

// ±100ppm oscillators with the FTM loop running: the cluster's precision
// (largest pairwise clock offset) must stay within the precision bound for
// the whole run, no node may degrade, and the schedule must stay intact.
func TestTimingSyncHoldsPrecision(t *testing.T) {
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: staticOnlyWorkload(),
		Mode:     sim.Streaming,
		Duration: 500 * time.Millisecond,
		Seed:     3,
		Timing: &sim.TimingOptions{
			DriftPPM:         100,
			JitterMicroticks: 2,
			SyncEnabled:      true,
		},
	}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := res.Report.Sync
	if s.SyncFrames == 0 {
		t.Fatal("no sync-frame measurements: the FTM loop never ran")
	}
	if s.Corrections == 0 {
		t.Error("no offset corrections applied despite 100ppm drift")
	}
	// testConfig's default bound is StaticSlotLen/4 = 12 MT.
	if s.MaxOffsetMacroticks > 12 {
		t.Errorf("cluster precision reached %.2f MT, want ≤ 12 (bound)",
			s.MaxOffsetMacroticks)
	}
	if s.SyncLossEvents != 0 || s.PassiveTransitions != 0 || s.Halts != 0 {
		t.Errorf("degradation fired under nominal drift: loss=%d passive=%d halt=%d",
			s.SyncLossEvents, s.PassiveTransitions, s.Halts)
	}
	if r := res.Report.DeadlineMissRatio[metrics.Static]; r != 0 {
		t.Errorf("static miss ratio %g with synchronized clocks, want 0", r)
	}
}

// With synchronization disabled the same oscillators drift apart unchecked:
// nodes exceed the precision bound, demote to normal-passive, halt, and
// reintegrate via the startup path — and their silenced slots miss deadlines.
func TestTimingUnsyncedDegrades(t *testing.T) {
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: staticOnlyWorkload(),
		Mode:     sim.Streaming,
		Duration: 500 * time.Millisecond,
		Seed:     3,
		Timing: &sim.TimingOptions{
			DriftPPM:    5000,
			SyncEnabled: false,
		},
	}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := res.Report.Sync
	if s.SyncLossEvents == 0 || s.PassiveTransitions == 0 {
		t.Errorf("no sync loss without correction: loss=%d passive=%d",
			s.SyncLossEvents, s.PassiveTransitions)
	}
	if s.Halts == 0 {
		t.Error("no node halted despite persistent sync loss")
	}
	if s.Reintegrations == 0 {
		t.Error("no halted node reintegrated")
	}
	if res.Report.Dropped[metrics.Static] == 0 {
		t.Error("POC degradation silenced no static traffic")
	}
}

// babbleScenario scripts node 1 babbling into other nodes' slots from 10ms
// to the end of the run.
func babbleScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	scn, err := scenario.Parse([]byte(`{
		"name": "babbling-idiot",
		"timing": {
			"babble": [{"node": 1, "start": "10ms"}]
		}
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return scn
}

// The babbling-idiot acceptance check: with guardians the babble is contained
// at node 1's boundary (counted and traced) and the non-faulty nodes' static
// frames miss nothing; without guardians the babble collides with their slots
// and deadlines are measurably missed.
func TestBabbleGuardianContainment(t *testing.T) {
	run := func(guardians bool) (metrics.Report, *trace.Recorder) {
		rec := trace.New()
		res, err := sim.Run(sim.Options{
			Config:   testConfig(),
			Workload: staticOnlyWorkload(),
			Mode:     sim.Streaming,
			Duration: 100 * time.Millisecond,
			Seed:     9,
			Sink:     rec,
			Scenario: babbleScenario(t),
			Timing: &sim.TimingOptions{
				SyncEnabled: true,
				Guardians:   guardians,
			},
		}, fspec.New(fspec.Options{}))
		if err != nil {
			t.Fatalf("Run(guardians=%v): %v", guardians, err)
		}
		return res.Report, rec
	}

	on, onRec := run(true)
	if on.Sync.GuardianBlocks == 0 {
		t.Error("guardians enabled but no babble blocked")
	}
	if n := len(onRec.Filter(func(ev trace.Event) bool {
		return ev.Kind == trace.EventGuardianBlock && ev.Node == 1 && ev.Detail == "babble"
	})); n == 0 {
		t.Error("no guardian-block trace events for the babbler")
	}
	if n := len(onRec.Filter(func(ev trace.Event) bool {
		return ev.Kind == trace.EventFault && ev.Detail == "babble-collision"
	})); n != 0 {
		t.Errorf("%d babble collisions leaked past the guardian", n)
	}
	if r := on.DeadlineMissRatio[metrics.Static]; r != 0 {
		t.Errorf("static miss ratio %g with guardians, want 0", r)
	}

	off, offRec := run(false)
	if n := len(offRec.Filter(func(ev trace.Event) bool {
		return ev.Kind == trace.EventFault && ev.Detail == "babble-collision"
	})); n == 0 {
		t.Error("guardians disabled but no babble collisions recorded")
	}
	if off.Sync.GuardianBlocks != 0 {
		t.Errorf("%d guardian blocks with guardians disabled", off.Sync.GuardianBlocks)
	}
	if off.DeadlineMissRatio[metrics.Static] <= on.DeadlineMissRatio[metrics.Static] {
		t.Errorf("unguarded miss ratio %g not above guarded %g",
			off.DeadlineMissRatio[metrics.Static], on.DeadlineMissRatio[metrics.Static])
	}
}

// syncProbe wraps a scheduler and records Env.SyncLost at the start of
// every cycle.
type syncProbe struct {
	sim.Scheduler
	env  *sim.Env
	lost []bool
}

func (p *syncProbe) Init(env *sim.Env) error {
	p.env = env
	return p.Scheduler.Init(env)
}

func (p *syncProbe) CycleStart(cycle int64, now timebase.Macrotick) {
	p.lost = append(p.lost, p.env.SyncLost)
	p.Scheduler.CycleStart(cycle, now)
}

// Env.SyncLost is how the timing layer reports sync health to the
// scheduler: never set without the layer, set during a cluster-wide
// sync-frame outage (also while every node is halted), and clear again
// once the nodes have resynchronized.
func TestSyncLostFlag(t *testing.T) {
	run := func(scn *scenario.Scenario) []bool {
		t.Helper()
		probe := &syncProbe{Scheduler: core.New(core.Options{BER: 1e-7, Goal: 0.9, Adaptive: true})}
		_, err := sim.Run(sim.Options{
			Config:   testConfig(),
			Workload: staticOnlyWorkload(),
			Mode:     sim.Streaming,
			Duration: 200 * time.Millisecond,
			Seed:     3,
			Scenario: scn,
		}, probe)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return probe.lost
	}

	if c := slices.Index(run(nil), true); c >= 0 {
		t.Errorf("cycle %d: SyncLost set without the timing layer", c)
	}

	scn, err := scenario.Parse([]byte(`{
		"name": "sync-blackout",
		"timing": {
			"syncLoss": [
				{"node": 0, "start": "30ms", "end": "60ms"},
				{"node": 1, "start": "30ms", "end": "60ms"},
				{"node": 2, "start": "30ms", "end": "60ms"}
			]
		}
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	lost := run(scn)
	// testConfig's cycle is 1 ms, so cycle c starts at c ms.
	switch first := slices.Index(lost, true); {
	case first < 0:
		t.Fatal("SyncLost never set during a cluster-wide sync outage")
	case first < 30:
		t.Errorf("SyncLost set at cycle %d, before the outage starts at 30 ms", first)
	}
	// Every node halts at 41.7 ms and node 1 is the first to reintegrate,
	// at 47 ms: in between no node is left to be in sync with.
	for c := 44; c <= 47; c++ {
		if !lost[c] {
			t.Errorf("cycle %d: SyncLost false while every node is halted", c)
		}
	}
	if lost[len(lost)-1] {
		t.Error("SyncLost still set at the end of the run, after resynchronization")
	}
}

// timingScenario exercises every timing-fault kind at once: a drift step, a
// sync-frame suppression window, and a babble window.
func timingScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	scn, err := scenario.Parse([]byte(`{
		"name": "timing-faults",
		"timing": {
			"driftSteps": [{"node": 0, "at": "20ms", "ppm": 1500}],
			"syncLoss": [{"node": 2, "start": "40ms", "end": "60ms"}],
			"babble": [{"node": 1, "start": "70ms", "end": "90ms"}]
		}
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return scn
}

// Identical seed + scenario must reproduce the trace byte for byte with the
// full timing layer on: drifting clocks, jittered measurements, guardians,
// POC transitions and randomized reintegration are all seeded-RNG pure.
func TestTimingTraceByteIdentical(t *testing.T) {
	run := func() []byte {
		rec := trace.New()
		_, err := sim.Run(sim.Options{
			Config:   testConfig(),
			Workload: mixedWorkload(),
			Mode:     sim.Streaming,
			Duration: 100 * time.Millisecond,
			Seed:     42,
			Sink:     rec,
			Scenario: timingScenario(t),
			Timing: &sim.TimingOptions{
				DriftPPM:         100,
				JitterMicroticks: 4,
				SyncEnabled:      true,
				Guardians:        true,
			},
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

// A scenario that scripts timing faults switches the timing layer on by
// itself (zero-value options), so the scripted babble is still modeled.
func TestScenarioAloneEnablesTiming(t *testing.T) {
	rec := trace.New()
	_, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: staticOnlyWorkload(),
		Mode:     sim.Streaming,
		Duration: 50 * time.Millisecond,
		Seed:     5,
		Sink:     rec,
		Scenario: babbleScenario(t),
	}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := len(rec.Filter(func(ev trace.Event) bool {
		return ev.Kind == trace.EventFault && ev.Detail == "babble-collision"
	})); n == 0 {
		t.Error("scenario-only run ignored the scripted babble")
	}
}

// Corrupted transmissions go through the real wire format: the fault detail
// is the receiver's CRC verdict, not injector fiat.
func TestCRCVerdictInTrace(t *testing.T) {
	injA, err := fault.NewBERInjector(2e-3, 7)
	if err != nil {
		t.Fatalf("NewBERInjector: %v", err)
	}
	rec := trace.New()
	_, err = sim.Run(sim.Options{
		Config:    testConfig(),
		Workload:  staticOnlyWorkload(),
		Mode:      sim.Streaming,
		Duration:  100 * time.Millisecond,
		Seed:      11,
		Sink:      rec,
		InjectorA: injA,
	}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	faults := rec.Filter(func(ev trace.Event) bool {
		return ev.Kind == trace.EventFault
	})
	if len(faults) == 0 {
		t.Fatal("no faults injected at BER 2e-3")
	}
	for _, ev := range faults {
		if !strings.HasPrefix(ev.Detail, "crc-") {
			t.Fatalf("fault detail %q, want a crc-* verdict", ev.Detail)
		}
	}
}
