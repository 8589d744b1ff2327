package core_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/core"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/scenario"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/trace"
)

// staticTriple is the three-message static set shared by the failover test.
func staticTriple() signal.Set {
	msgs := []signal.Message{
		{ID: 1, Name: "s1", Node: 0, Kind: signal.Periodic,
			Period: 2 * time.Millisecond, Deadline: 2 * time.Millisecond, Bits: 64},
		{ID: 2, Name: "s2", Node: 1, Kind: signal.Periodic,
			Period: 4 * time.Millisecond, Deadline: 4 * time.Millisecond, Bits: 128},
		{ID: 5, Name: "s5", Node: 2, Kind: signal.Periodic,
			Period: 1 * time.Millisecond, Deadline: 1 * time.Millisecond, Bits: 64},
	}
	return signal.Set{Name: "static-triple", Messages: msgs}
}

// staticHeavyWorkload: five 2ms-period statics sized so a single frame
// nearly fills its 50-macrotick slot (40-byte payload, 488 wire bits).
func staticHeavyWorkload() signal.Set {
	msgs := make([]signal.Message, 0, 5)
	for i := 0; i < 5; i++ {
		msgs = append(msgs, signal.Message{
			ID: i + 1, Name: "s" + string(rune('a'+i)), Node: i, Kind: signal.Periodic,
			Period: 2 * time.Millisecond, Deadline: 2 * time.Millisecond, Bits: 320,
		})
	}
	return signal.Set{Name: "static-heavy", Messages: msgs}
}

func runScenario(t *testing.T, sched sim.Scheduler, set signal.Set, scn *scenario.Scenario,
	seed uint64, dur time.Duration, rec *trace.Recorder) sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: set,
		Mode:     sim.Streaming,
		Duration: dur,
		Seed:     seed,
		Sink:     rec,
		Scenario: scn,
	}, sched)
	if err != nil {
		t.Fatalf("Run(%s): %v", sched.Name(), err)
	}
	return res
}

func parseScenario(t *testing.T, doc string) *scenario.Scenario {
	t.Helper()
	scn, err := scenario.Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return scn
}

// Acceptance: a mid-run BER step on both channels (1e-7 → 5e-4 at 100ms;
// at 5e-4 a 488-bit frame fails with p ≈ 0.22, so the design-time plan's
// copies no longer cover the loss).  The static offline plan keeps its k_z
// and pays deadline misses for the rest of the run; the adaptive controller
// replans within its convergence window and must end strictly better on
// the same seed.
func TestAdaptiveBeatsStaticPlanOnBERStep(t *testing.T) {
	scn := parseScenario(t, `{
		"name": "ber-step",
		"channels": {
			"A": {"baseBER": 1e-7, "steps": [{"start": "100ms", "ber": 5e-4}]},
			"B": {"baseBER": 1e-7, "steps": [{"start": "100ms", "ber": 5e-4}]}
		}
	}`)
	const seed, dur = 11, time.Second
	opts := core.Options{BER: 1e-7, Goal: 0.999}

	static := core.New(opts)
	sres := runScenario(t, static, staticHeavyWorkload(), scn, seed, dur, nil)

	opts.Adaptive = true
	adaptive := core.New(opts)
	ares := runScenario(t, adaptive, staticHeavyWorkload(), scn, seed, dur, nil)

	sm := sres.Report.DeadlineMissRatio[metrics.Static]
	am := ares.Report.DeadlineMissRatio[metrics.Static]
	if sm <= 0 {
		t.Fatalf("static plan missed nothing (%g): the step is not stressing it", sm)
	}
	if am >= sm {
		t.Errorf("adaptive miss ratio %g not strictly below static %g", am, sm)
	}
	if ares.Report.Adaptive.Replans == 0 {
		t.Error("adaptive run never replanned despite a 1000x BER step")
	}
	if n := sres.Report.Adaptive.Replans; n != 0 {
		t.Errorf("static run replanned %d times", n)
	}
}

// Acceptance: a channel-A blackout.  With failover, the slot owners are
// served on channel B inside the same slot; only the instances released
// before blackout detection trips may be lost.
func TestAdaptiveFailoverDeliversOnChannelB(t *testing.T) {
	scn := parseScenario(t, `{
		"name": "blackout-A",
		"channels": {
			"A": {"baseBER": 1e-7, "blackouts": [{"start": "50ms", "end": "100ms"}]},
			"B": {"baseBER": 1e-7}
		}
	}`)
	const seed, dur = 3, 150 * time.Millisecond
	base := core.Options{BER: 1e-7, Goal: 0.9} // k_z = 0: no proactive copies

	static := core.New(base)
	sres := runScenario(t, static, staticTriple(), scn, seed, dur, nil)

	aopts := base
	aopts.Adaptive = true
	adaptive := core.New(aopts)
	rec := trace.New()
	ares := runScenario(t, adaptive, staticTriple(), scn, seed, dur, rec)

	// Without failover, every instance whose whole deadline window falls in
	// the 50ms blackout expires: ~60+ drops.  With failover, only the
	// detection latency (a few cycles) can cost instances.
	if got := sres.Report.Dropped[metrics.Static]; got < 50 {
		t.Fatalf("non-adaptive drops = %d: blackout not stressing the run", got)
	}
	if got := ares.Report.Dropped[metrics.Static]; got > 5 {
		t.Errorf("adaptive drops = %d, want ≤5 (detection latency only)", got)
	}
	if ares.Report.Delivered[metrics.Static] <= sres.Report.Delivered[metrics.Static] {
		t.Errorf("adaptive delivered %d ≤ static %d",
			ares.Report.Delivered[metrics.Static], sres.Report.Delivered[metrics.Static])
	}

	// The failover state machine must have engaged and disengaged.
	fo := rec.Filter(func(ev trace.Event) bool { return ev.Kind == trace.EventFailover })
	if len(fo) < 2 || fo[0].Detail != "on" || fo[len(fo)-1].Detail != "off" {
		t.Fatalf("failover events = %+v, want on ... off", fo)
	}
	if adaptive.FailoverActive() {
		t.Error("failover still active 50ms after the channel returned")
	}

	// Once failover is on, every delivery inside the blackout rides
	// channel B: channel A cannot complete a transmission there.
	for _, ev := range rec.Filter(func(ev trace.Event) bool {
		return ev.Kind == trace.EventTxEnd && ev.Time >= 50_000 && ev.Time < 100_000
	}) {
		if ev.Channel != frame.ChannelB {
			t.Fatalf("delivery on channel %v at t=%d inside the blackout", ev.Channel, ev.Time)
		}
	}
	bDeliveries := rec.Filter(func(ev trace.Event) bool {
		return ev.Kind == trace.EventTxEnd && ev.Channel == frame.ChannelB &&
			ev.Time >= 50_000 && ev.Time < 100_000
	})
	if len(bDeliveries) < 50 {
		t.Errorf("only %d channel-B deliveries during the blackout", len(bDeliveries))
	}
}

// shedWorkload pairs hard statics with two soft dynamics of different
// criticality: d20 (Priority 1, more critical) and d25 (Priority 2, less
// critical, large frame — the expensive one to insure).
func shedWorkload() signal.Set {
	msgs := []signal.Message{
		{ID: 1, Name: "s1", Node: 0, Kind: signal.Periodic,
			Period: 2 * time.Millisecond, Deadline: 2 * time.Millisecond, Bits: 64},
		{ID: 2, Name: "s2", Node: 1, Kind: signal.Periodic,
			Period: 2 * time.Millisecond, Deadline: 2 * time.Millisecond, Bits: 64},
		{ID: 5, Name: "s5", Node: 2, Kind: signal.Periodic,
			Period: 2 * time.Millisecond, Deadline: 2 * time.Millisecond, Bits: 64},
		{ID: 20, Name: "d20", Node: 3, Kind: signal.Aperiodic,
			Period: 5 * time.Millisecond, Deadline: 5 * time.Millisecond,
			Bits: 64, Priority: 1},
		{ID: 25, Name: "d25", Node: 4, Kind: signal.Aperiodic,
			Period: 5 * time.Millisecond, Deadline: 5 * time.Millisecond,
			Bits: 1000, Priority: 2},
	}
	return signal.Set{Name: "shed", Messages: msgs}
}

// Load shedding: as the replan BER worsens, soft messages are shed least
// critical first; a replan at a healed BER restores them all.
func TestAdaptiveShedsInCriticalityOrder(t *testing.T) {
	sched := core.New(core.Options{BER: 1e-7, Goal: 0.999, MaxRetx: 2, Adaptive: true})
	rec := trace.New()
	runScenario(t, sched, shedWorkload(), nil, 1, 10*time.Millisecond, rec)

	steps := []struct {
		ber  float64
		want []int
	}{
		// Moderate degradation: insuring the large low-criticality d25
		// within k <= 2 is what breaks the goal; it is shed alone.
		{3e-5, []int{25}},
		// Severe degradation: even the hard statics alone cannot reach the
		// goal; all soft traffic is shed.
		{5e-3, []int{20, 25}},
		// Healed: the shed set is rebuilt from scratch and comes back empty.
		{1e-7, []int{}},
	}
	now := timebase.Macrotick(10_000)
	for _, st := range steps {
		now += 20_000
		sched.ReplanForTest(st.ber, now)
		if got := sched.ShedIDs(); !reflect.DeepEqual(got, st.want) {
			t.Errorf("replan at BER %g: shed = %v, want %v", st.ber, got, st.want)
		}
	}
	shed := rec.Filter(func(ev trace.Event) bool {
		return ev.Kind == trace.EventShed && ev.Detail == "shed"
	})
	if len(shed) != 2 { // 25 once, 20 once; restores don't count
		t.Errorf("%d shed events, want 2", len(shed))
	}
}

// Determinism: the adaptive pipeline (estimator, replans, shed events,
// failover) is seeded-RNG pure; two identical runs emit byte-identical
// traces including the adaptive event kinds.
func TestAdaptiveTraceByteIdentical(t *testing.T) {
	scn := `{
		"name": "mixed-degradation",
		"channels": {
			"A": {"baseBER": 1e-7,
				"steps": [{"start": "60ms", "ber": 2e-4}],
				"blackouts": [{"start": "30ms", "end": "45ms"}]},
			"B": {"baseBER": 1e-7}
		}
	}`
	run := func() ([]byte, int64) {
		sched := core.New(core.Options{BER: 1e-7, Goal: 0.999, Adaptive: true})
		rec := trace.New()
		runScenario(t, sched, mixedWorkload(), parseScenario(t, scn), 9, 200*time.Millisecond, rec)
		var buf bytes.Buffer
		if err := rec.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		adaptiveEvents := rec.Count(trace.EventReplan) + rec.Count(trace.EventFailover)
		return buf.Bytes(), adaptiveEvents
	}
	first, n1 := run()
	second, n2 := run()
	if n1 == 0 {
		t.Fatal("run produced no replan/failover events: determinism check is vacuous")
	}
	if n1 != n2 || !bytes.Equal(first, second) {
		t.Fatalf("identical seed+scenario produced different adaptive traces (%d vs %d adaptive events)", n1, n2)
	}
}
