package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/core"
	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"

	"github.com/flexray-go/coefficient/internal/fspec"
)

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

func mixedWorkload() signal.Set {
	msgs := []signal.Message{
		{ID: 1, Name: "s1", Node: 0, Kind: signal.Periodic,
			Period: 2 * time.Millisecond, Deadline: 2 * time.Millisecond, Bits: 64},
		{ID: 2, Name: "s2", Node: 1, Kind: signal.Periodic,
			Period: 4 * time.Millisecond, Deadline: 4 * time.Millisecond, Bits: 128},
		{ID: 5, Name: "s5", Node: 2, Kind: signal.Periodic,
			Period: 1 * time.Millisecond, Deadline: 1 * time.Millisecond, Bits: 64},
		{ID: 20, Name: "d20", Node: 3, Kind: signal.Aperiodic,
			Period: 5 * time.Millisecond, Deadline: 5 * time.Millisecond,
			Bits: 64, Priority: 1},
		{ID: 25, Name: "d25", Node: 4, Kind: signal.Aperiodic,
			Period: 10 * time.Millisecond, Deadline: 10 * time.Millisecond,
			Bits: 96, Priority: 2},
	}
	return signal.Set{Name: "mixed", Messages: msgs}
}

func runWith(t *testing.T, sched sim.Scheduler, ber float64, seed uint64, dur time.Duration) sim.Result {
	t.Helper()
	opts := sim.Options{
		Config:   testConfig(),
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: dur,
		Seed:     seed,
	}
	if ber > 0 {
		var err error
		opts.InjectorA, err = fault.NewBERInjector(ber, seed+1)
		if err != nil {
			t.Fatalf("NewBERInjector: %v", err)
		}
		opts.InjectorB, err = fault.NewBERInjector(ber, seed+2)
		if err != nil {
			t.Fatalf("NewBERInjector: %v", err)
		}
	}
	res, err := sim.Run(opts, sched)
	if err != nil {
		t.Fatalf("Run(%s): %v", sched.Name(), err)
	}
	return res
}

func TestCoEfficientFaultFree(t *testing.T) {
	sched := core.New(core.Options{BER: 0})
	res := runWith(t, sched, 0, 1, 100*time.Millisecond)
	r := res.Report
	if r.Delivered[metrics.Static] == 0 || r.Delivered[metrics.Dynamic] == 0 {
		t.Fatalf("deliveries = %v", r.Delivered)
	}
	if r.DeadlineMissRatio[metrics.Static] != 0 || r.DeadlineMissRatio[metrics.Dynamic] != 0 {
		t.Errorf("fault-free misses: %v", r.DeadlineMissRatio)
	}
	if r.Retransmissions != 0 {
		t.Errorf("fault-free retransmissions = %d", r.Retransmissions)
	}
	if sched.Stats().JobsCreated != 0 {
		t.Errorf("fault-free jobs created = %d", sched.Stats().JobsCreated)
	}
}

func TestCoEfficientPlansRetransmissions(t *testing.T) {
	sched := core.New(core.Options{BER: 1e-4, Goal: 0.999999})
	runWith(t, sched, 0, 1, 10*time.Millisecond) // plan built at Init
	if sched.Stats().PlannedRetx == 0 {
		t.Error("no retransmissions planned at BER 1e-4 and a tight goal")
	}
	// Larger frames have higher failure probability: s2 (128 bits) should
	// get at least as many retransmissions as s1 (64 bits) under the
	// differentiated plan — both have comparable instance counts.
	if sched.Plan(2) < sched.Plan(1) {
		t.Errorf("plan: k(s2)=%d < k(s1)=%d", sched.Plan(2), sched.Plan(1))
	}
}

func TestCoEfficientRecoversFromFaults(t *testing.T) {
	sched := core.New(core.Options{BER: 2e-4, Goal: 0.999})
	res := runWith(t, sched, 2e-4, 3, 200*time.Millisecond)
	r := res.Report
	if r.Faults == 0 {
		t.Fatal("no faults injected")
	}
	if r.Retransmissions == 0 {
		t.Fatal("no retransmissions despite faults")
	}
	if sched.Stats().JobsCreated == 0 {
		t.Error("no retransmission jobs created")
	}
	if sched.Stats().StolenStatic == 0 {
		t.Error("no static slack stolen for retransmissions")
	}
	// With dual-channel slack the miss ratio should stay very low.
	if got := r.OverallMissRatio(); got > 0.05 {
		t.Errorf("OverallMissRatio = %g, want ≤ 0.05", got)
	}
}

func TestCoEfficientBeatsFSPECUnderFaults(t *testing.T) {
	const (
		ber  = 2e-4
		seed = 11
		dur  = 300 * time.Millisecond
	)
	co := runWith(t, core.New(core.Options{BER: ber, Goal: 0.999}), ber, seed, dur)
	// FSPEC chases the same goal with uniform blind copies (2 per channel).
	fs := runWith(t, fspec.New(fspec.Options{Copies: 2}), ber, seed, dur)

	// CoEfficient must not miss more deadlines than FSPEC.
	if co.Report.OverallMissRatio() > fs.Report.OverallMissRatio() {
		t.Errorf("CoEfficient miss ratio %g > FSPEC %g",
			co.Report.OverallMissRatio(), fs.Report.OverallMissRatio())
	}
	// Cooperative scheduling must cut dynamic latency.
	coDyn := co.Report.MeanLatency[metrics.Dynamic]
	fsDyn := fs.Report.MeanLatency[metrics.Dynamic]
	if coDyn >= fsDyn {
		t.Errorf("CoEfficient dynamic latency %v not below FSPEC %v", coDyn, fsDyn)
	}
	// CoEfficient must deliver at least as much useful traffic.
	coDelivered := co.Report.Delivered[metrics.Static] + co.Report.Delivered[metrics.Dynamic]
	fsDelivered := fs.Report.Delivered[metrics.Static] + fs.Report.Delivered[metrics.Dynamic]
	if coDelivered < fsDelivered {
		t.Errorf("CoEfficient delivered %d < FSPEC %d", coDelivered, fsDelivered)
	}
}

func TestCoEfficientCooperativeSoftStealing(t *testing.T) {
	// Even fault-free, dynamic messages ride idle static slots, so their
	// latency beats FSPEC's (which waits for the dynamic segment).
	co := runWith(t, core.New(core.Options{}), 0, 7, 100*time.Millisecond)
	fs := runWith(t, fspec.New(fspec.Options{}), 0, 7, 100*time.Millisecond)
	if co.Report.MeanLatency[metrics.Dynamic] >= fs.Report.MeanLatency[metrics.Dynamic] {
		t.Errorf("cooperative dynamic latency %v not below FSPEC %v",
			co.Report.MeanLatency[metrics.Dynamic], fs.Report.MeanLatency[metrics.Dynamic])
	}
}

func TestCoEfficientSingleChannelAblation(t *testing.T) {
	const ber = 2e-4
	dual := core.New(core.Options{BER: ber, Goal: 0.999})
	single := core.New(core.Options{BER: ber, Goal: 0.999, SingleChannel: true})
	rDual := runWith(t, dual, ber, 13, 200*time.Millisecond)
	rSingle := runWith(t, single, ber, 13, 200*time.Millisecond)
	// Dual-channel provides strictly more steal capacity; it must not be
	// worse on misses.
	if rDual.Report.OverallMissRatio() > rSingle.Report.OverallMissRatio() {
		t.Errorf("dual-channel miss ratio %g > single-channel %g",
			rDual.Report.OverallMissRatio(), rSingle.Report.OverallMissRatio())
	}
}

func TestCoEfficientBatchMode(t *testing.T) {
	sched := core.New(core.Options{BER: 2e-4, Goal: 0.999})
	injA, err := fault.NewBERInjector(2e-4, 5)
	if err != nil {
		t.Fatalf("NewBERInjector: %v", err)
	}
	res, err := sim.Run(sim.Options{
		Config:         testConfig(),
		Workload:       mixedWorkload(),
		Mode:           sim.Batch,
		BatchInstances: 30,
		Seed:           5,
		InjectorA:      injA,
	}, sched)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := res.Report.Delivered[metrics.Static] + res.Report.Delivered[metrics.Dynamic]
	if total != 5*30 {
		t.Fatalf("batch delivered %d, want %d", total, 5*30)
	}
}

func TestCoEfficientBatchFasterThanFSPEC(t *testing.T) {
	run := func(sched sim.Scheduler) time.Duration {
		injA, err := fault.NewBERInjector(2e-4, 5)
		if err != nil {
			t.Fatalf("NewBERInjector: %v", err)
		}
		injB, err := fault.NewBERInjector(2e-4, 6)
		if err != nil {
			t.Fatalf("NewBERInjector: %v", err)
		}
		res, err := sim.Run(sim.Options{
			Config:         testConfig(),
			Workload:       mixedWorkload(),
			Mode:           sim.Batch,
			BatchInstances: 50,
			Seed:           5,
			InjectorA:      injA,
			InjectorB:      injB,
		}, sched)
		if err != nil {
			t.Fatalf("Run(%s): %v", sched.Name(), err)
		}
		return res.Report.Makespan
	}
	co := run(core.New(core.Options{BER: 2e-4, Goal: 0.999}))
	// FSPEC chases a comparable goal with blind uniform copies, which
	// occupy the owner slots and stretch the drain.
	fs := run(fspec.New(fspec.Options{Copies: 2}))
	if co >= fs {
		t.Errorf("CoEfficient makespan %v not below FSPEC %v", co, fs)
	}
}

func TestCoEfficientDeterministic(t *testing.T) {
	a := runWith(t, core.New(core.Options{BER: 2e-4, Goal: 0.999}), 2e-4, 21, 100*time.Millisecond)
	b := runWith(t, core.New(core.Options{BER: 2e-4, Goal: 0.999}), 2e-4, 21, 100*time.Millisecond)
	if a.Report.Faults != b.Report.Faults ||
		a.Report.Delivered[metrics.Static] != b.Report.Delivered[metrics.Static] ||
		a.Report.MeanLatency[metrics.Dynamic] != b.Report.MeanLatency[metrics.Dynamic] {
		t.Error("same-seed CoEfficient runs differ")
	}
}

// Out-of-range options are rejected at Init and surfaced by sim.Run, never
// replaced by a default.  Zero still selects the default for Goal, Unit and
// MaxRetx (TestCoEfficientCooperativeSoftStealing runs the zero Options).
func TestInitRejectsOutOfRangeOptions(t *testing.T) {
	for _, tc := range []struct {
		field string
		opts  core.Options
	}{
		{"BER", core.Options{BER: -1e-4, Goal: 0.999}},
		{"goal", core.Options{BER: 0, Goal: 7}},
		{"unit", core.Options{BER: 1e-4, Goal: 0.999, Unit: -time.Second}},
		{"cap", core.Options{BER: 1e-4, Goal: 0.999, MaxRetx: -3}},
	} {
		t.Run(tc.field, func(t *testing.T) {
			_, err := sim.Run(sim.Options{
				Config:   testConfig(),
				Workload: mixedWorkload(),
				Mode:     sim.Streaming,
				Duration: 10 * time.Millisecond,
				Seed:     1,
			}, core.New(tc.opts))
			if err == nil {
				t.Fatalf("out-of-range %s accepted", tc.field)
			}
			if msg := err.Error(); !strings.HasPrefix(msg, "scheduler init: core: ") || !strings.Contains(msg, tc.field) {
				t.Errorf("err = %q, want a scheduler init error naming the %s", msg, tc.field)
			}
		})
	}
}

// ownerGuard wraps CoEfficient and checks every channel-A static slot: a
// stolen transmission is allowed only when the slot owner has no released,
// undelivered instance.  FlexRay gives each static slot to one node, so
// this is the whole of the guarantee that stealing never endangers a
// periodic deadline.
type ownerGuard struct {
	*core.Scheduler
	env        *sim.Env
	steals     int
	displaced  int
	firstSlot  int
	firstCycle int64
}

func (g *ownerGuard) Init(env *sim.Env) error {
	g.env = env
	return g.Scheduler.Init(env)
}

func (g *ownerGuard) StaticSlot(ch frame.Channel, cycle int64, slot int, now timebase.Macrotick) *sim.Transmission {
	pending := false
	if ch == frame.ChannelA {
		if m := g.env.StaticMsg(slot); m != nil {
			pending = g.env.ECU(m.Node).PeekStatic(slot, now) != nil
		}
	}
	tx := g.Scheduler.StaticSlot(ch, cycle, slot, now)
	if ch == frame.ChannelA && tx != nil && tx.Stolen {
		g.steals++
		if pending {
			if g.displaced == 0 {
				g.firstSlot, g.firstCycle = slot, cycle
			}
			g.displaced++
		}
	}
	return tx
}

func TestStealsNeverDisplaceOwner(t *testing.T) {
	modes := []struct {
		name string
		opts core.Options
	}{
		{"proactive", core.Options{Goal: 0.999}},
		{"adaptive", core.Options{Goal: 0.999, Adaptive: true}},
	}
	for _, ber := range []float64{0, 2e-4, 1e-3} {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/ber=%g", mode.name, ber), func(t *testing.T) {
				opts := mode.opts
				opts.BER = ber
				g := &ownerGuard{Scheduler: core.New(opts)}
				runWith(t, g, ber, 5, 200*time.Millisecond)
				if g.steals == 0 {
					t.Fatal("no channel-A steals: the check saw nothing")
				}
				if g.displaced > 0 {
					t.Errorf("%d of %d channel-A steals took a slot whose owner had a pending instance (first: slot %d, cycle %d)",
						g.displaced, g.steals, g.firstSlot, g.firstCycle)
				}
			})
		}
	}
}
