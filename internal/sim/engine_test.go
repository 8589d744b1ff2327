package sim_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/node"
	"github.com/flexray-go/coefficient/internal/scenario"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/topology"
	"github.com/flexray-go/coefficient/internal/trace"

	"github.com/flexray-go/coefficient/internal/fspec"
)

// testConfig: 1ms cycle, 10 static slots of 50 macroticks, 40 minislots of
// 5 macroticks, 300 macroticks of idle tail.
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

func staticOnlyWorkload() signal.Set {
	msgs := []signal.Message{
		{ID: 1, Name: "s1", Node: 0, Kind: signal.Periodic,
			Period: 2 * time.Millisecond, Deadline: 2 * time.Millisecond, Bits: 64},
		{ID: 2, Name: "s2", Node: 1, Kind: signal.Periodic,
			Period: 4 * time.Millisecond, Deadline: 4 * time.Millisecond, Bits: 128},
		{ID: 5, Name: "s5", Node: 2, Kind: signal.Periodic,
			Period: 1 * time.Millisecond, Deadline: 1 * time.Millisecond, Bits: 64},
	}
	return signal.Set{Name: "static-only", Messages: msgs}
}

func mixedWorkload() signal.Set {
	set := staticOnlyWorkload()
	set.Messages = append(set.Messages,
		signal.Message{ID: 20, Name: "d20", Node: 3, Kind: signal.Aperiodic,
			Period: 5 * time.Millisecond, Deadline: 5 * time.Millisecond,
			Bits: 64, Priority: 1},
		signal.Message{ID: 25, Name: "d25", Node: 4, Kind: signal.Aperiodic,
			Period: 10 * time.Millisecond, Deadline: 10 * time.Millisecond,
			Bits: 96, Priority: 2},
	)
	set.Name = "mixed"
	return set
}

func TestStreamingFaultFreeDeliversEverything(t *testing.T) {
	rec := trace.New()
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: 100 * time.Millisecond,
		Seed:     1,
		Sink:     rec,
	}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	if r.Delivered[metrics.Static] == 0 || r.Delivered[metrics.Dynamic] == 0 {
		t.Fatalf("deliveries static/dynamic = %d/%d, want both > 0",
			r.Delivered[metrics.Static], r.Delivered[metrics.Dynamic])
	}
	// s5 has a 1ms period over 100ms: roughly 100 instances; s1 ~50; s2 ~25.
	if got := r.Delivered[metrics.Static]; got < 160 || got > 180 {
		t.Errorf("static deliveries = %d, want ≈175", got)
	}
	if r.DeadlineMissRatio[metrics.Static] != 0 {
		t.Errorf("fault-free static miss ratio = %g, want 0", r.DeadlineMissRatio[metrics.Static])
	}
	if r.DeadlineMissRatio[metrics.Dynamic] != 0 {
		t.Errorf("fault-free dynamic miss ratio = %g, want 0", r.DeadlineMissRatio[metrics.Dynamic])
	}
	if r.Dropped[metrics.Static] != 0 || r.Dropped[metrics.Dynamic] != 0 {
		t.Errorf("fault-free drops = %v, want none", r.Dropped)
	}
	if r.Faults != 0 || r.Retransmissions != 0 {
		t.Errorf("fault-free run recorded %d faults, %d retx", r.Faults, r.Retransmissions)
	}
	if rec.Count(trace.EventTxEnd) == 0 {
		t.Error("no tx-end events recorded")
	}
}

func TestFSPECDuplicatesOnChannelB(t *testing.T) {
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: staticOnlyWorkload(),
		Mode:     sim.Streaming,
		Duration: 50 * time.Millisecond,
		Seed:     1,
	}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	// Raw wire time counts both copies; useful time only the delivering
	// copy: the ratio must be essentially 2.
	if r.RawUtilization < 1.9*r.BandwidthUtilization {
		t.Errorf("RawUtilization %g not ≈2× useful %g: channel-B duplication missing?",
			r.RawUtilization, r.BandwidthUtilization)
	}
}

func TestFaultInjectionCausesRetransmissions(t *testing.T) {
	injA, err := fault.NewBERInjector(2e-3, 7) // ~25% frame loss at ~170 wire bits
	if err != nil {
		t.Fatalf("NewBERInjector: %v", err)
	}
	injB, err := fault.NewBERInjector(2e-3, 8)
	if err != nil {
		t.Fatalf("NewBERInjector: %v", err)
	}
	res, err := sim.Run(sim.Options{
		Config:    testConfig(),
		Workload:  staticOnlyWorkload(),
		Mode:      sim.Streaming,
		Duration:  200 * time.Millisecond,
		Seed:      1,
		InjectorA: injA,
		InjectorB: injB,
	}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	if r.Faults == 0 {
		t.Fatal("no faults injected at BER 2e-3")
	}
	if r.Retransmissions == 0 {
		t.Fatal("faults occurred but no retransmissions happened")
	}
	if r.Delivered[metrics.Static] == 0 {
		t.Fatal("nothing delivered under faults")
	}
	if res.FaultsA.Faults == 0 {
		t.Error("injector A reports no faults")
	}
}

func TestBatchModeMakespan(t *testing.T) {
	res, err := sim.Run(sim.Options{
		Config:         testConfig(),
		Workload:       staticOnlyWorkload(),
		Mode:           sim.Batch,
		BatchInstances: 20,
		Seed:           1,
	}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	want := int64(3 * 20)
	if got := r.Delivered[metrics.Static]; got != want {
		t.Fatalf("batch delivered %d, want %d", got, want)
	}
	if r.Makespan <= 0 {
		t.Error("zero makespan")
	}
	// s1 (2ms period, 20 instances) finishes around 38-40ms; the run must
	// not be radically longer.
	if r.Makespan > 100*time.Millisecond {
		t.Errorf("makespan %v unexpectedly long", r.Makespan)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() sim.Result {
		injA, err := fault.NewBERInjector(1e-3, 42)
		if err != nil {
			t.Fatalf("NewBERInjector: %v", err)
		}
		res, err := sim.Run(sim.Options{
			Config:    testConfig(),
			Workload:  mixedWorkload(),
			Mode:      sim.Streaming,
			Duration:  100 * time.Millisecond,
			Seed:      5,
			InjectorA: injA,
		}, fspec.New(fspec.Options{}))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Report.Delivered[metrics.Static] != b.Report.Delivered[metrics.Static] ||
		a.Report.Faults != b.Report.Faults ||
		a.Report.MeanLatency[metrics.Dynamic] != b.Report.MeanLatency[metrics.Dynamic] {
		t.Error("same-seed runs differ")
	}
}

func TestOptionValidation(t *testing.T) {
	base := sim.Options{
		Config:   testConfig(),
		Workload: staticOnlyWorkload(),
		Mode:     sim.Streaming,
		Duration: time.Millisecond,
	}
	tests := []struct {
		name   string
		mutate func(*sim.Options)
	}{
		{"zero duration", func(o *sim.Options) { o.Duration = 0 }},
		{"bad mode", func(o *sim.Options) { o.Mode = 0 }},
		{"batch without instances", func(o *sim.Options) { o.Mode = sim.Batch; o.BatchInstances = 0 }},
		{"static id too big", func(o *sim.Options) { o.Workload.Messages[0].ID = 11 }},
		{"bad config", func(o *sim.Options) { o.Config.StaticSlots = 0 }},
		// A negative node ID used to get no ECU, so the first release of
		// its message dereferenced a nil ECU and the run panicked.
		{"negative node id", func(o *sim.Options) {
			o.Cluster = topology.DualChannelBus(3)
			o.Cluster.Nodes[0].ID = -1
			o.Workload.Messages[0].Node = -1
		}},
		{"negative drift", func(o *sim.Options) { o.Timing = &sim.TimingOptions{DriftPPM: -1} }},
		{"negative sync jitter", func(o *sim.Options) { o.Timing = &sim.TimingOptions{JitterMicroticks: -1} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o := base
			o.Workload.Messages = append([]signal.Message(nil), base.Workload.Messages...)
			tt.mutate(&o)
			if _, err := sim.Run(o, fspec.New(fspec.Options{})); !errors.Is(err, sim.ErrBadOptions) {
				t.Fatalf("Run = %v, want ErrBadOptions", err)
			}
		})
	}
}

func TestDynamicFrameIDInsideStaticRangeRejected(t *testing.T) {
	set := staticOnlyWorkload()
	set.Messages = append(set.Messages, signal.Message{
		ID: 7, Name: "bad-dyn", Node: 0, Kind: signal.Aperiodic,
		Deadline: time.Millisecond, Bits: 64,
	})
	_, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: set,
		Mode:     sim.Streaming,
		Duration: time.Millisecond,
	}, fspec.New(fspec.Options{}))
	if !errors.Is(err, sim.ErrBadOptions) {
		t.Fatalf("Run = %v, want ErrBadOptions", err)
	}
}

func TestOversizedStaticMessageRejected(t *testing.T) {
	set := staticOnlyWorkload()
	set.Messages[0].Bits = 4000 // needs far more than a 50-macrotick slot
	_, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: set,
		Mode:     sim.Streaming,
		Duration: time.Millisecond,
	}, fspec.New(fspec.Options{}))
	if !errors.Is(err, sim.ErrBadOptions) {
		t.Fatalf("Run = %v, want ErrBadOptions", err)
	}
}

func TestDynamicLatencyBoundedFaultFree(t *testing.T) {
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: 100 * time.Millisecond,
		Seed:     9,
	}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// A dynamic instance waits at most ~1 cycle for its slot counter.
	if got := res.Report.MaxLatency[metrics.Dynamic]; got > 3*time.Millisecond {
		t.Errorf("max dynamic latency = %v, want ≤ 3ms", got)
	}
}

func TestPartialTopologyNoInvalidTransmissions(t *testing.T) {
	cluster := topology.Cluster{
		Name: "partial",
		Nodes: []topology.Node{
			{ID: 0, Name: "a-only", ChannelA: true},
			{ID: 1, Name: "dual-1", ChannelA: true, ChannelB: true},
			{ID: 2, Name: "dual-2", ChannelA: true, ChannelB: true},
			{ID: 3, Name: "dual-3", ChannelA: true, ChannelB: true},
			{ID: 4, Name: "dual-4", ChannelA: true, ChannelB: true},
		},
		ChannelA: topology.ChannelConfig{Kind: topology.KindBus},
		ChannelB: topology.ChannelConfig{Kind: topology.KindBus},
	}
	rec := trace.New()
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Cluster:  cluster,
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: 50 * time.Millisecond,
		Seed:     1,
		Sink:     rec,
	}, fspec.New(fspec.Options{Copies: 2}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Report.Delivered[metrics.Static] == 0 {
		t.Fatal("nothing delivered on partial topology")
	}
	invalid := rec.Filter(func(e trace.Event) bool {
		return e.Kind == trace.EventDrop && strings.HasPrefix(e.Detail, "invalid")
	})
	if len(invalid) != 0 {
		t.Errorf("%d invalid transmissions recorded, first: %+v", len(invalid), invalid[0])
	}
	// Node 0 owns frame 1 and is not attached to channel B: every frame-1
	// transmission must be on channel A.
	for _, ev := range rec.Filter(func(e trace.Event) bool {
		return e.Kind == trace.EventTxStart && e.FrameID == 1
	}) {
		if ev.Channel != frame.ChannelA {
			t.Fatalf("frame 1 transmitted on channel %v by B-unattached node", ev.Channel)
		}
	}
}

func TestPermanentNodeFailure(t *testing.T) {
	// Node 2 (owner of s5, the 1ms-period message) dies at 20ms.
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: 100 * time.Millisecond,
		Seed:     1,
		Scenario: &scenario.Scenario{Nodes: []scenario.NodeEvent{
			{Node: 2, FailAt: scenario.Duration(20 * time.Millisecond)},
		}},
	}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	// s5 delivers ~20 instances before the failure; the remaining ~80
	// expire as drops.  The other messages are unaffected (fault
	// containment).
	if r.Dropped[metrics.Static] < 70 {
		t.Errorf("static drops = %d, want ≈80 from the failed node", r.Dropped[metrics.Static])
	}
	if r.Delivered[metrics.Static] < 60 { // s1 ~50 + s2 ~25 + s5's first 20
		t.Errorf("static deliveries = %d: failure not contained", r.Delivered[metrics.Static])
	}
	if r.DeadlineMissRatio[metrics.Dynamic] != 0 {
		t.Errorf("dynamic traffic affected by an unrelated node failure: %g",
			r.DeadlineMissRatio[metrics.Dynamic])
	}
}

func TestSymbolWindowStaysSilent(t *testing.T) {
	cfg := testConfig()
	cfg.SymbolWindowLen = 100
	rec := trace.New()
	_, err := sim.Run(sim.Options{
		Config:   cfg,
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: 50 * time.Millisecond,
		Seed:     1,
		Sink:     rec,
	}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, ev := range rec.Filter(func(e trace.Event) bool { return e.Kind == trace.EventTxStart }) {
		if win, _ := cfg.SlotAt(ev.Time); win == timebase.WindowSymbol {
			t.Fatalf("transmission started inside the symbol window at %d", ev.Time)
		}
	}
}

func TestGoodputReported(t *testing.T) {
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: staticOnlyWorkload(),
		Mode:     sim.Streaming,
		Duration: 100 * time.Millisecond,
		Seed:     1,
	}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// s5 alone delivers 64 bits/ms = 64 kbit/s; with s1 and s2 the
	// goodput is ≈ 112 kbit/s.
	got := res.Report.GoodputBps
	if got < 90_000 || got > 130_000 {
		t.Errorf("GoodputBps = %g, want ≈112k", got)
	}
}

// brokenScheduler violates every protocol constraint the engine checks.
type brokenScheduler struct {
	env  *sim.Env
	mode int
}

func (b *brokenScheduler) Name() string                         { return "broken" }
func (b *brokenScheduler) Init(env *sim.Env) error              { b.env = env; return nil }
func (b *brokenScheduler) CycleStart(int64, timebase.Macrotick) {}

func (b *brokenScheduler) StaticSlot(ch frame.Channel, _ int64, slot int, now timebase.Macrotick) *sim.Transmission {
	m := b.env.StaticMsg(slot)
	if m == nil {
		return nil
	}
	in := b.env.ECU(m.Node).PeekStatic(slot, now)
	if in == nil {
		return nil
	}
	switch b.mode {
	case 0: // frame longer than the slot
		return &sim.Transmission{Instance: in, Channel: ch,
			Duration: b.env.Cfg.StaticSlotLen + 10}
	case 1: // nil instance
		return &sim.Transmission{Channel: ch, Duration: 10}
	default: // non-positive duration
		return &sim.Transmission{Instance: in, Channel: ch, Duration: 0}
	}
}

func (b *brokenScheduler) DynamicSlot(ch frame.Channel, _ int64, slotCounter, _, remaining int, now timebase.Macrotick) *sim.Transmission {
	m := b.env.DynamicMsg(slotCounter)
	if m == nil {
		return nil
	}
	in := b.env.ECU(m.Node).PeekDynamicFor(slotCounter, now)
	if in == nil {
		return nil
	}
	// Claim far more minislots than remain.
	return &sim.Transmission{Instance: in, Channel: ch,
		Duration: b.env.Cfg.MinislotLen * timebase.Macrotick(remaining+10)}
}

func (b *brokenScheduler) Result(*sim.Transmission, bool, timebase.Macrotick) {}
func (b *brokenScheduler) InstanceDropped(*node.Instance, timebase.Macrotick) {}

// The engine must reject protocol-violating transmissions without
// panicking, recording them as invalid drops in the trace.
func TestEngineRejectsProtocolViolations(t *testing.T) {
	for mode := 0; mode < 3; mode++ {
		rec := trace.New()
		res, err := sim.Run(sim.Options{
			Config:   testConfig(),
			Workload: mixedWorkload(),
			Mode:     sim.Streaming,
			Duration: 10 * time.Millisecond,
			Seed:     1,
			Sink:     rec,
		}, &brokenScheduler{mode: mode})
		if err != nil {
			t.Fatalf("mode %d: Run: %v", mode, err)
		}
		invalid := rec.Filter(func(e trace.Event) bool {
			return e.Kind == trace.EventDrop && strings.HasPrefix(e.Detail, "invalid")
		})
		if len(invalid) == 0 {
			t.Errorf("mode %d: no invalid transmissions recorded", mode)
		}
		// Nothing was actually delivered by a broken static policy.
		if mode != 1 && res.Report.Delivered[metrics.Static] != 0 {
			t.Errorf("mode %d: %d deliveries from invalid transmissions",
				mode, res.Report.Delivered[metrics.Static])
		}
	}
}

func TestOwnerOfStaticSlot(t *testing.T) {
	var captured *sim.Env
	sched := fspec.New(fspec.Options{})
	_, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: time.Millisecond,
		Seed:     1,
	}, &envCapture{inner: sched, out: &captured})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if owner := captured.OwnerOfStaticSlot(1); owner == nil || owner.ID != 0 {
		t.Errorf("OwnerOfStaticSlot(1) = %+v, want node 0", owner)
	}
	if owner := captured.OwnerOfStaticSlot(9); owner != nil {
		t.Errorf("OwnerOfStaticSlot(unassigned) = %+v", owner)
	}
}

// envCapture wraps a scheduler to expose the Env the engine built.
type envCapture struct {
	inner sim.Scheduler
	out   **sim.Env
}

func (e *envCapture) Name() string { return e.inner.Name() }
func (e *envCapture) Init(env *sim.Env) error {
	*e.out = env
	return e.inner.Init(env)
}
func (e *envCapture) CycleStart(c int64, now timebase.Macrotick) { e.inner.CycleStart(c, now) }
func (e *envCapture) StaticSlot(ch frame.Channel, c int64, slot int, now timebase.Macrotick) *sim.Transmission {
	return e.inner.StaticSlot(ch, c, slot, now)
}
func (e *envCapture) DynamicSlot(ch frame.Channel, c int64, sc, ms, rem int, now timebase.Macrotick) *sim.Transmission {
	return e.inner.DynamicSlot(ch, c, sc, ms, rem, now)
}
func (e *envCapture) Result(tx *sim.Transmission, ok bool, now timebase.Macrotick) {
	e.inner.Result(tx, ok, now)
}
func (e *envCapture) InstanceDropped(in *node.Instance, now timebase.Macrotick) {
	e.inner.InstanceDropped(in, now)
}

// initCounter is an FSPEC scheduler that counts Init calls and records
// the sink installed at the last one.  It deliberately does not
// implement sim.ReplicaResettable, so every replica must re-Init it.
type initCounter struct {
	sim.Scheduler
	inits   int
	sink    trace.Sink
	initErr error
}

func (c *initCounter) Init(env *sim.Env) error {
	c.inits++
	c.sink = env.Trace
	if c.initErr != nil {
		return c.initErr
	}
	return c.Scheduler.Init(env)
}

// TestRunInitsSchedulerOnce pins where Init runs: once per sim.Run and
// once per Reset of a reused RunState, after the replica's sink is
// installed, and a failing Init surfaces as a scheduler init error.
func TestRunInitsSchedulerOnce(t *testing.T) {
	opts := sim.Options{
		Config:   testConfig(),
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: 5 * time.Millisecond,
		Seed:     1,
	}
	sched := &initCounter{Scheduler: fspec.New(fspec.Options{})}
	rec := trace.New()
	runOpts := opts
	runOpts.Sink = rec
	if _, err := sim.Run(runOpts, sched); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sched.inits != 1 {
		t.Errorf("sim.Run called Init %d times, want 1", sched.inits)
	}
	if sched.sink != rec {
		t.Errorf("Init saw sink %T, want the run's recorder", sched.sink)
	}

	compiled, err := sim.Compile(opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	sched = &initCounter{Scheduler: fspec.New(fspec.Options{})}
	st, err := compiled.NewState(sched)
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		if err := st.Reset(sim.ReplicaOptions{Seed: seed}); err != nil {
			t.Fatalf("Reset %d: %v", seed, err)
		}
		if sched.inits != int(seed) {
			t.Errorf("after Reset %d: Init called %d times, want %d", seed, sched.inits, seed)
		}
		if _, err := st.Run(); err != nil {
			t.Fatalf("Run %d: %v", seed, err)
		}
	}

	errInit := errors.New("init refused")
	_, err = sim.Run(opts, &initCounter{Scheduler: fspec.New(fspec.Options{}), initErr: errInit})
	if !errors.Is(err, errInit) || !strings.HasPrefix(err.Error(), "scheduler init: ") {
		t.Errorf("failing Init: err = %v, want %q wrapped as scheduler init", err, errInit)
	}
}

func TestExplicitLatestTxHonored(t *testing.T) {
	// pLatestTx = 1: dynamic transmissions may only start in the first
	// minislot, so at most one dynamic frame per channel per cycle, and
	// only the lowest reachable frame ID (20, at slot counter 11 — which
	// needs the counter to pass 10 empty slots first, so nothing can
	// start by minislot 1 and the dynamic segment stays silent).
	cfg := testConfig()
	cfg.LatestTx = 1
	rec := trace.New()
	res, err := sim.Run(sim.Options{
		Config:   cfg,
		Workload: mixedWorkload(),
		Mode:     sim.Streaming,
		Duration: 50 * time.Millisecond,
		Seed:     1,
		Sink:     rec,
	}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := res.Report.Delivered[metrics.Dynamic]; got != 0 {
		t.Errorf("pLatestTx=1 delivered %d dynamic frames; FTDMA gate broken", got)
	}
	// Static traffic is unaffected.
	if res.Report.Delivered[metrics.Static] == 0 {
		t.Error("static traffic vanished under a dynamic-segment gate")
	}
}
