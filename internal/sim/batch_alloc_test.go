package sim

import (
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/node"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/trace"
)

// spinScheduler keeps every slot busy forever: it re-transmits the head
// instance of each slot's buffer whether or not it was delivered, so
// runCycle exercises the full transmit/record/injector path on every
// cycle without ever draining the workload — the steady state the
// allocation gates measure.
type spinScheduler struct {
	env *Env
	tx  Transmission
}

func (s *spinScheduler) Name() string                         { return "spin" }
func (s *spinScheduler) Init(env *Env) error                  { s.env = env; return nil }
func (s *spinScheduler) CycleStart(int64, timebase.Macrotick) {}

func (s *spinScheduler) StaticSlot(ch frame.Channel, _ int64, slot int, now timebase.Macrotick) *Transmission {
	m := s.env.StaticMsg(slot)
	if m == nil {
		return nil
	}
	in := s.env.ECU(m.Node).PeekStaticBlind(slot, now, 1<<30)
	if in == nil {
		return nil
	}
	s.tx = Transmission{Instance: in, Channel: ch, Duration: s.env.FrameDuration(m)}
	return &s.tx
}

func (s *spinScheduler) DynamicSlot(ch frame.Channel, _ int64, slotCounter, _, remaining int, now timebase.Macrotick) *Transmission {
	m := s.env.DynamicMsg(slotCounter)
	if m == nil {
		return nil
	}
	if s.env.MinislotsFor(m) > remaining {
		return nil
	}
	in := s.env.ECU(m.Node).PeekDynamicForBlind(slotCounter, now, 1<<30)
	if in == nil {
		return nil
	}
	s.tx = Transmission{Instance: in, Channel: ch, Duration: s.env.FrameDuration(m)}
	return &s.tx
}

func (s *spinScheduler) Result(*Transmission, bool, timebase.Macrotick)     {}
func (s *spinScheduler) InstanceDropped(*node.Instance, timebase.Macrotick) {}

// newAllocState builds the run state both allocation gates measure: a
// small three-message batch workload driven by spinScheduler.
func newAllocState(t *testing.T) *RunState {
	t.Helper()
	cfg := timebase.Config{
		MacrotickDuration:         time.Microsecond,
		MacroPerCycle:             1000,
		StaticSlots:               10,
		StaticSlotLen:             50,
		Minislots:                 40,
		MinislotLen:               5,
		DynamicSlotIdlePhase:      1,
		MinislotActionPointOffset: 1,
	}
	set := signal.Set{Name: "alloc", Messages: []signal.Message{
		{ID: 1, Name: "s1", Node: 0, Kind: signal.Periodic,
			Period: 2 * time.Millisecond, Deadline: 2 * time.Millisecond, Bits: 64},
		{ID: 2, Name: "s2", Node: 1, Kind: signal.Periodic,
			Period: 4 * time.Millisecond, Deadline: 4 * time.Millisecond, Bits: 128},
		{ID: 20, Name: "d20", Node: 2, Kind: signal.Aperiodic,
			Period: 5 * time.Millisecond, Deadline: 5 * time.Millisecond,
			Bits: 64, Priority: 1},
	}}
	compiled, err := Compile(Options{
		Config:         cfg,
		Workload:       set,
		Mode:           Batch,
		BatchInstances: 4,
		BitRate:        frame.DefaultBitRate,
	})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	st, err := compiled.NewState(&spinScheduler{})
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	return st
}

// TestHotPathAllocFree is the allocation regression gate of DESIGN.md
// §10: once the workload is released and the first deliveries have
// warmed the metrics tables, the batch-mode cycle loop must run with
// zero heap allocations under a CountingSink.  Any new make/append/
// boxing on the runCycle path fails this test (and the hotpath lint
// that guards the same functions statically).
func TestHotPathAllocFree(t *testing.T) {
	st := newAllocState(t)
	if err := st.Reset(ReplicaOptions{Seed: 7, Sink: &trace.CountingSink{}}); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	st.eng.rel.enqueueBatch()

	// Warm-up: first deliveries populate the lazily grown metrics tables
	// (per-frame series, latency chunks); the steady state reuses them.
	cycle := int64(0)
	for ; cycle < 4; cycle++ {
		st.eng.runCycle(cycle)
	}

	avg := testing.AllocsPerRun(100, func() {
		st.eng.runCycle(cycle)
		cycle++
	})
	if avg != 0 {
		t.Errorf("steady-state runCycle allocates %.2f times per cycle, want 0", avg)
	}
}

// TestReplicaResetAllocFree extends the DESIGN.md §10 allocation gate to
// the batched replica loop: once a couple of warm-up replicas have grown
// the arenas and metrics tables to steady state, Reset plus the cycle
// loop must allocate nothing — that is the whole point of the
// compiled/replica-state split.  The measured op is Reset → release →
// runCycle×N; result assembly (Run's final Report) allocates by design
// and stays outside the replica hot path.
func TestReplicaResetAllocFree(t *testing.T) {
	st := newAllocState(t)
	sink := &trace.CountingSink{}
	const cycles = 8
	replica := func(seed uint64) error {
		if err := st.Reset(ReplicaOptions{Seed: seed, Sink: sink}); err != nil {
			return err
		}
		st.eng.rel.enqueueBatch()
		for c := int64(0); c < cycles; c++ {
			st.eng.runCycle(c)
		}
		return nil
	}

	// Warm-up: the first replicas grow the instance arena and the lazily
	// built metrics tables; steady state rewinds and reuses them.  The
	// measured loop repeats one seed so arena demand is exactly the
	// warmed size — a new seed could legitimately release more instances
	// and grow the arena, which is growth, not leak.
	for seed := uint64(7); seed < 9; seed++ {
		if err := replica(seed); err != nil {
			t.Fatalf("warm-up replica %d: %v", seed, err)
		}
	}
	var replicaErr error
	avg := testing.AllocsPerRun(50, func() {
		if err := replica(7); err != nil {
			replicaErr = err
		}
	})
	if replicaErr != nil {
		t.Fatalf("measured replica: %v", replicaErr)
	}
	if avg != 0 {
		t.Errorf("steady-state Reset+run replica allocates %.2f times, want 0", avg)
	}
	if sink.Total() == 0 {
		t.Fatalf("counting sink saw no events — replica loop did not run")
	}
}
