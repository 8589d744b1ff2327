// Package fspec implements the paper's baseline: the standard FlexRay
// specification behaviour ("FSPEC").
//
// FSPEC schedules the static and dynamic segments separately and relies on
// blind redundancy rather than analysis for reliability — FlexRay has no
// acknowledgement mechanism, so the baseline transmits a fixed number of
// redundant copies of *every* segment (best-effort retransmission for all
// segments) and duplicates each transmission on channel B:
//
//   - every static frame goes out in its owner's TDMA slot, `Copies` times
//     over consecutive cycles, each duplicated on channel B;
//   - dynamic messages are served only in the dynamic segment by the
//     priority-based FTDMA walk, with the same blind redundancy;
//   - after the blind copies, an undelivered instance keeps retrying
//     best-effort until its deadline (or until delivered, in batch runs);
//   - idle static slots are wasted: no slack stealing, no cooperation
//     between the segments.
package fspec

import (
	"fmt"

	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/node"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"
)

// Options configures the baseline.
type Options struct {
	// Copies is the number of blind transmissions per instance per
	// channel (≥ 1).  The paper's best-effort retransmission for all
	// segments corresponds to a uniform copy count chasing the
	// reliability goal.  Zero means 1; a negative count fails Init.
	Copies int
}

// Scheduler is the FSPEC baseline policy.
type Scheduler struct {
	opts Options
	env  *sim.Env
	// maxAttempts is the blind-phase attempt budget: Copies on each of
	// the two channels.
	maxAttempts int
	// lastStatic remembers, per static slot, the instance channel A
	// transmitted this cycle so channel B duplicates it.  Indexed
	// densely by slot (sized at Init) so the per-slot path does no map
	// hashing; cleared every cycle.
	lastStatic []*node.Instance
	// lastDynamic remembers, per dynamic slot counter, the instance
	// channel A transmitted this cycle.
	lastDynamic []*node.Instance
	// tx is the scratch transmission handed to the engine.  The
	// sim.Scheduler contract guarantees each transmission is fully
	// consumed (Result called) before the next scheduler call, so one
	// value can be reused without another heap allocation per slot.
	tx sim.Transmission
}

var _ sim.Scheduler = (*Scheduler)(nil)

// New returns the FSPEC baseline scheduler.  A negative copy count is
// reported by Init.
func New(opts Options) *Scheduler {
	if opts.Copies == 0 {
		opts.Copies = 1
	}
	return &Scheduler{
		opts:        opts,
		maxAttempts: 2 * opts.Copies,
	}
}

// Name implements sim.Scheduler.
func (s *Scheduler) Name() string { return "FSPEC" }

// Init implements sim.Scheduler.
func (s *Scheduler) Init(env *sim.Env) error {
	if s.opts.Copies < 0 {
		return fmt.Errorf("fspec: negative copy count %d", s.opts.Copies)
	}
	s.env = env
	maxID := env.Cfg.StaticSlots
	for i := range env.Set.Messages {
		if id := env.Set.Messages[i].ID; id > maxID {
			maxID = id
		}
	}
	s.lastStatic = make([]*node.Instance, env.Cfg.StaticSlots+1)
	s.lastDynamic = make([]*node.Instance, maxID+1)
	return nil
}

// CycleStart implements sim.Scheduler.
func (s *Scheduler) CycleStart(int64, timebase.Macrotick) {
	clear(s.lastStatic)
	clear(s.lastDynamic)
}

// ResetReplica implements sim.ReplicaResettable.  FSPEC keeps no
// cross-cycle state beyond the per-cycle duplication tables, which are
// cleared in place.
//
//perf:hotpath
func (s *Scheduler) ResetReplica() error {
	clear(s.lastStatic)
	clear(s.lastDynamic)
	return nil
}

// emit fills the scratch transmission and returns it.
//
//perf:hotpath
func (s *Scheduler) emit(tx sim.Transmission) *sim.Transmission {
	s.tx = tx
	return &s.tx
}

// pickStatic selects the channel-A instance for a static slot: first any
// instance still inside its blind-copy budget (delivered or not — the
// protocol cannot know), then, best-effort, the oldest undelivered one.
//
//perf:hotpath
func (s *Scheduler) pickStatic(ecu *node.ECU, slot int, now timebase.Macrotick) *node.Instance {
	if in := ecu.PeekStaticBlind(slot, now, s.maxAttempts); in != nil {
		return in
	}
	return ecu.PeekStatic(slot, now)
}

// StaticSlot implements sim.Scheduler.
//
//perf:hotpath
func (s *Scheduler) StaticSlot(ch frame.Channel, _ int64, slot int, now timebase.Macrotick) *sim.Transmission {
	m := s.env.StaticMsg(slot)
	if m == nil {
		return nil
	}
	if !s.env.Attached(m.Node, ch) {
		return nil
	}
	ecu := s.env.ECU(m.Node)
	if ch == frame.ChannelA {
		in := s.pickStatic(ecu, slot, now)
		if in == nil {
			return nil
		}
		s.lastStatic[slot] = in
		return s.emit(sim.Transmission{
			Instance: in,
			Channel:  ch,
			Duration: s.env.FrameDuration(m),
			Retx:     in.Attempts > 0,
		})
	}
	in := s.lastStatic[slot]
	if in == nil {
		return nil
	}
	return s.emit(sim.Transmission{
		Instance:  in,
		Channel:   ch,
		Duration:  s.env.FrameDuration(m),
		Retx:      in.Attempts > 1, // the A copy of this cycle already counted
		Redundant: true,
	})
}

// DynamicSlot implements sim.Scheduler: the FTDMA walk transmits the head
// of the priority queue for the slot counter's frame ID; channel B repeats
// channel A's choice.
//
//perf:hotpath
func (s *Scheduler) DynamicSlot(ch frame.Channel, _ int64, slotCounter, _, remaining int, now timebase.Macrotick) *sim.Transmission {
	m := s.env.DynamicMsg(slotCounter)
	if m == nil || slotCounter >= len(s.lastDynamic) {
		return nil
	}
	if s.env.MinislotsFor(m) > remaining {
		return nil
	}
	if !s.env.Attached(m.Node, ch) {
		return nil
	}
	ecu := s.env.ECU(m.Node)
	if ch == frame.ChannelA {
		in := ecu.PeekDynamicForBlind(slotCounter, now, s.maxAttempts)
		if in == nil {
			in = ecu.PeekDynamicFor(slotCounter, now)
		}
		if in == nil {
			return nil
		}
		s.lastDynamic[slotCounter] = in
		return s.emit(sim.Transmission{
			Instance: in,
			Channel:  ch,
			Duration: s.env.FrameDuration(m),
			Retx:     in.Attempts > 0,
		})
	}
	in := s.lastDynamic[slotCounter]
	if in == nil {
		return nil
	}
	return s.emit(sim.Transmission{
		Instance:  in,
		Channel:   ch,
		Duration:  s.env.FrameDuration(m),
		Retx:      in.Attempts > 1,
		Redundant: true,
	})
}

// Result implements sim.Scheduler: an instance leaves its queue once it is
// delivered AND its blind-copy budget is spent — the protocol itself has no
// acknowledgements, so the copies go out regardless of earlier successes.
func (s *Scheduler) Result(tx *sim.Transmission, _ bool, _ timebase.Macrotick) {
	in := tx.Instance
	if !in.Done || in.Attempts < s.maxAttempts {
		return
	}
	ecu := s.env.ECU(in.Msg.Node)
	if in.Msg.Kind == signal.Periodic {
		ecu.RemoveStatic(in)
	} else {
		ecu.RemoveDynamic(in)
	}
}

// InstanceDropped implements sim.Scheduler; FSPEC keeps no side state per
// instance.
func (s *Scheduler) InstanceDropped(*node.Instance, timebase.Macrotick) {}
