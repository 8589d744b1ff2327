package core_test

import (
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/core"
	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/reliability"
	"github.com/flexray-go/coefficient/internal/scenario"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
)

// Proactive replication must transmit the planned copies even on a
// fault-free channel: FlexRay has no acknowledgements, so nothing cancels
// them.
func TestProactiveCopiesOnCleanChannel(t *testing.T) {
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: 100 * time.Millisecond,
		Seed:     3,
		// Fault-free wire despite the scheduler planning for 1e-4.
	}, core.New(core.Options{BER: 1e-4, Goal: 0.999}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Report.Retransmissions == 0 {
		t.Error("no copies sent on a fault-free channel")
	}
	if got := res.Report.OverallMissRatio(); got != 0 {
		t.Errorf("fault-free misses: %g", got)
	}
}

// Burst faults (Gilbert–Elliott) must not break recovery: CoEfficient still
// delivers, and the injector reports a fault rate above the good-state
// baseline.  The burst window covers the whole run on channel A.
func TestCoEfficientUnderBurstFaults(t *testing.T) {
	const horizon = 500 * time.Millisecond
	sched := core.New(core.Options{BER: 1e-4, Goal: 0.999})
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: horizon,
		Seed:     7,
		Scenario: &scenario.Scenario{Name: "burst-a", Channels: map[string]*scenario.Channel{
			"A": {Bursts: []scenario.Burst{{
				End:        scenario.Duration(horizon),
				BERGood:    1e-6,
				BERBad:     5e-3,
				PGoodToBad: 0.002,
				PBadToGood: 0.05,
			}}},
		}},
	}, sched)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.FaultsA.Faults == 0 {
		t.Fatal("burst injector produced no faults")
	}
	if res.Report.Delivered[metrics.Static] == 0 {
		t.Fatal("nothing delivered under burst faults")
	}
	// Bursts overwhelm single transmissions but channel-B slack copies
	// and retransmissions keep losses bounded.
	if got := res.Report.OverallMissRatio(); got > 0.10 {
		t.Errorf("burst miss ratio = %g, want ≤ 0.10", got)
	}
}

// The uniform-plan ablation must plan at least as many total copies as the
// differentiated plan.
func TestUniformPlansAtLeastAsManyCopies(t *testing.T) {
	diff := core.New(core.Options{BER: 1e-4, Goal: 0.9999})
	uni := core.New(core.Options{BER: 1e-4, Goal: 0.9999, Uniform: true})
	runWith(t, diff, 0, 1, 10*time.Millisecond)
	runWith(t, uni, 0, 1, 10*time.Millisecond)
	if diff.Stats().PlannedRetx > uni.Stats().PlannedRetx {
		t.Errorf("differentiated plan %d exceeds uniform %d",
			diff.Stats().PlannedRetx, uni.Stats().PlannedRetx)
	}
}

// Dropped instances must clean up every retransmission job: after a run
// with tight deadlines and faults, the retransmission queue must not leak.
func TestRetxQueueDoesNotLeak(t *testing.T) {
	sched := core.New(core.Options{BER: 5e-4, Goal: 0.999})
	injA, err := fault.NewBERInjector(5e-4, 3)
	if err != nil {
		t.Fatalf("NewBERInjector: %v", err)
	}
	_, err = sim.Run(sim.Options{
		Config:    testConfig(),
		Workload:  mixedWorkload(),
		Mode:      sim.Streaming,
		Duration:  time.Second,
		Seed:      3,
		InjectorA: injA,
	}, sched)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Anything still queued must be bounded by one cycle's worth of
	// work, not a simulation's worth.
	if got := sched.RetxQueueLen(); got > 100 {
		t.Errorf("retransmission queue holds %d jobs after the run", got)
	}
}

// The "selective" in selective slack stealing: a retransmission whose frame
// does not fit the static slot must never be placed there, and with
// selectivity enabled a smaller job behind it in the EDF queue still gets
// the slot (no head-of-line blocking).
func TestSelectiveSlackSkipsOversizedFrames(t *testing.T) {
	// Static slots are 50 macroticks; the big dynamic message (512 bits →
	// ~69µs wire time at 10 Mbit/s) does not fit, the small one (8 bits →
	// ~10µs) does.
	set := signal.Set{Name: "selective", Messages: []signal.Message{
		{ID: 1, Name: "s1", Node: 0, Kind: signal.Periodic,
			Period: 2 * time.Millisecond, Deadline: 2 * time.Millisecond, Bits: 64},
		{ID: 20, Name: "big", Node: 1, Kind: signal.Aperiodic,
			Period: 4 * time.Millisecond, Deadline: 4 * time.Millisecond,
			Bits: 512, Priority: 1},
		{ID: 21, Name: "small", Node: 2, Kind: signal.Aperiodic,
			Period: 4 * time.Millisecond, Deadline: 4 * time.Millisecond,
			Bits: 8, Priority: 2},
	}}
	run := func(noSelective bool) (*core.Scheduler, sim.Result) {
		sched := core.New(core.Options{BER: 0, NoSelectiveSlack: noSelective})
		res, err := sim.Run(sim.Options{
			Config:   testConfig(),
			Workload: set,
			Mode:     sim.Streaming,
			Duration: 100 * time.Millisecond,
			Seed:     2,
		}, sched)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sched, res
	}

	selSched, selRes := run(false)
	_, blkRes := run(true)

	// Everything must still be delivered (the big frame goes through the
	// dynamic segment).
	if selRes.Report.Delivered[metrics.Dynamic] == 0 || blkRes.Report.Delivered[metrics.Dynamic] == 0 {
		t.Fatal("dynamic messages not delivered")
	}
	// With selectivity, the small message rides static slack even though
	// the higher-priority big one does not fit.
	if selSched.Stats().StolenSoft == 0 {
		t.Error("selective stealing placed nothing into static slack")
	}
	// The big frame exceeds a static slot: it must never appear as a
	// stolen static transmission.  The engine would record an invalid
	// drop; deliveries prove it used the dynamic segment instead.
	env := &sim.Env{Cfg: testConfig(), BitRate: 10_000_000}
	big := &set.Messages[1]
	if env.FitsStaticSlot(big) {
		t.Fatalf("test premise broken: big frame fits a static slot (%d MT)",
			env.FrameDuration(big))
	}
	// Head-of-line blocking hurts the small message's latency.
	if selRes.Report.MeanLatency[metrics.Dynamic] > blkRes.Report.MeanLatency[metrics.Dynamic] {
		t.Errorf("selective latency %v worse than blocking %v",
			selRes.Report.MeanLatency[metrics.Dynamic],
			blkRes.Report.MeanLatency[metrics.Dynamic])
	}
}

// Heavy faults and tight deadlines exercise the full job lifecycle: copy
// jobs are enqueued, sent, expired by the purge and discarded with their
// dropped instances — and through it all no instance may be lost without
// being counted.
func TestJobLifecycleUnderPressure(t *testing.T) {
	// The scheduler plans against a mild BER (small budgets), but the
	// channel is far worse (~57% frame loss at 5e-3 over ~168 wire bits),
	// so many instances exhaust their copies and expire.
	sched := core.New(core.Options{BER: 2e-4, Goal: 0.99, MaxRetx: 3})
	injA, err := fault.NewBERInjector(5e-3, 13)
	if err != nil {
		t.Fatalf("NewBERInjector: %v", err)
	}
	injB, err := fault.NewBERInjector(5e-3, 14)
	if err != nil {
		t.Fatalf("NewBERInjector: %v", err)
	}
	res, err := sim.Run(sim.Options{
		Config:    testConfig(),
		Workload:  mixedWorkload(),
		Mode:      sim.Streaming,
		Duration:  500 * time.Millisecond,
		Seed:      13,
		InjectorA: injA,
		InjectorB: injB,
	}, sched)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	if r.Faults == 0 {
		t.Fatal("no faults at BER 5e-3")
	}
	// Accounting must balance: every released instance is either
	// delivered or dropped; across 500ms the mixed workload releases
	// ~875 static and ~150 dynamic instances (minus the tail still in
	// flight at the horizon).
	total := r.Delivered[metrics.Static] + r.Dropped[metrics.Static]
	if total < 800 {
		t.Errorf("static delivered+dropped = %d: instances lost unaccounted", total)
	}
	if sched.Stats().JobsCreated == 0 {
		t.Error("no copy jobs created")
	}
	// The retransmission queue must not hold stale jobs at the end.
	if got := sched.RetxQueueLen(); got > 50 {
		t.Errorf("retx queue holds %d jobs", got)
	}
}

// End-to-end reliability validation: plan retransmissions for a goal with
// Theorem 1, run the simulator at the same physical BER, and check the
// empirically delivered fraction clears the goal (with sampling slack).
// This closes the loop between the paper's analysis and its system.
func TestPlannedReliabilityHoldsEmpirically(t *testing.T) {
	const (
		ber  = 2e-4 // pz ≈ 3.3% on the small frames: plenty of faults
		goal = 0.99
	)
	sched := core.New(core.Options{BER: ber, Goal: goal})
	injA, err := fault.NewBERInjector(ber, 31)
	if err != nil {
		t.Fatalf("NewBERInjector: %v", err)
	}
	injB, err := fault.NewBERInjector(ber, 32)
	if err != nil {
		t.Fatalf("NewBERInjector: %v", err)
	}
	res, err := sim.Run(sim.Options{
		Config:    testConfig(),
		Workload:  mixedWorkload(),
		Mode:      sim.Streaming,
		Duration:  2 * time.Second,
		Seed:      31,
		InjectorA: injA,
		InjectorB: injB,
	}, sched)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	if r.Faults == 0 {
		t.Fatal("no faults observed")
	}
	var delivered, dropped int64
	for _, k := range []metrics.SegmentKind{metrics.Static, metrics.Dynamic} {
		delivered += r.Delivered[k]
		dropped += r.Dropped[k]
	}
	total := delivered + dropped
	if total == 0 {
		t.Fatal("nothing released")
	}
	success := float64(delivered) / float64(total)
	// Theorem 1's goal applies per time unit; allow modest sampling
	// slack below it.
	if success < goal-0.005 {
		t.Errorf("empirical success %.5f below planned goal %.3f (delivered %d, dropped %d, faults %d)",
			success, goal, delivered, dropped, r.Faults)
	}
}

// The plan the scheduler installs must match the reliability planner run
// with identical inputs — no drift between the two layers.
func TestSchedulerPlanMatchesPlanner(t *testing.T) {
	const (
		ber  = 1e-4
		goal = 0.999
	)
	sched := core.New(core.Options{BER: ber, Goal: goal})
	runWith(t, sched, 0, 1, 10*time.Millisecond)

	set := mixedWorkload()
	msgs := make([]reliability.Message, len(set.Messages))
	for i, m := range set.Messages {
		period := m.Period
		if period <= 0 {
			period = m.Deadline
		}
		msgs[i] = reliability.Message{
			Name:   m.Name,
			Bits:   frame.WireBits(m.Bytes()),
			Period: period,
		}
	}
	plan, err := reliability.PlanDifferentiated(msgs, ber, time.Second, goal, 0)
	if err != nil {
		t.Fatalf("PlanDifferentiated: %v", err)
	}
	for i, m := range set.Messages {
		if got := sched.Plan(m.ID); got != plan.Retransmissions[i] {
			t.Errorf("k(%s) = %d, planner says %d", m.Name, got, plan.Retransmissions[i])
		}
	}
}
