// Adaptive reliability control: the runtime half of graceful degradation.
//
// The offline plan (buildPlan) fixes k_z against a design-time BER.  With
// Options.Adaptive set, the scheduler additionally runs an
// adapt.Controller fed from every transmission outcome and reacts in three
// escalating ways when the channel drifts away from the design point:
//
//  1. replan — when the observed equivalent BER diverges from the plan BER
//     by the divergence factor, the retransmission vector is recomputed
//     incrementally (reliability.Replan, warm-started from the installed
//     vector) at the observed BER;
//  2. shed — when no vector within the retransmission cap reaches the goal,
//     soft dynamic messages are shed in criticality order (highest Priority
//     value, i.e. least critical, first) until the goal is reachable for
//     the rest; shedding restarts from the full set on every replan, so a
//     healing channel restores shed messages automatically;
//  3. failover — while channel A looks blacked out (a run of consecutive
//     corrupted frames, see internal/adapt) or the timing layer reports
//     sync loss, channel B's static segment serves the slot owners directly
//     instead of acting as a steal pool, and steals are withheld from a
//     suspect channel (except for a periodic probe cycle that lets the
//     estimator observe recovery).
package core

import (
	"fmt"
	"sort"

	"github.com/flexray-go/coefficient/internal/adapt"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/reliability"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/trace"
)

// probeEvery is the period, in communication cycles, of the probing cycle
// on which steals are allowed onto a suspect channel so the estimator
// keeps receiving observations and can notice the channel healing.
const probeEvery = 8

// replanCooldownCycles is the minimum gap between two replans, in
// communication cycles.
const replanCooldownCycles = 20

// planEntry caches per-message planning inputs for runtime replans.
type planEntry struct {
	msg  reliability.Message
	id   int
	soft bool
	prio int
}

// initAdaptive builds the controller.  Called from Init after the offline
// plan exists.
func (s *Scheduler) initAdaptive() {
	if !s.opts.Adaptive {
		return
	}
	s.ctl = adapt.NewController(s.opts.BER, replanCooldownCycles*s.env.Cfg.MacroPerCycle)
	// Sized like the plan table (frame IDs are dense); probeCycles is a
	// fixed array and needs no allocation.
	s.shed = make([]bool, len(s.frames))
}

// probeIdx maps a channel to its probeCycles index.
func probeIdx(ch frame.Channel) int {
	if ch == frame.ChannelB {
		return 1
	}
	return 0
}

// observe feeds one transmission outcome to the controller.
func (s *Scheduler) observe(tx *sim.Transmission, ok bool) {
	if s.ctl == nil {
		return
	}
	s.ctl.Observe(tx.Channel, s.env.WireBits(tx.Instance.Msg), ok)
}

// stealAllowed reports whether steals may be placed on the channel: always
// on a healthy channel, and on a suspect one only during its periodic
// probe cycle.  Withholding steals from a blacked-out channel matters
// because a copy job is retired once transmitted — burning copies on a
// dead channel would defeat the retransmission plan.
func (s *Scheduler) stealAllowed(ch frame.Channel) bool {
	if s.ctl == nil || !s.ctl.Suspect(ch) {
		return true
	}
	return s.probeCycles[probeIdx(ch)]%probeEvery == 0
}

// avoidRetx reports whether retransmission copies should be withheld from
// the channel because it is observably degraded while the other channel is
// healthy.  A copy is retired once transmitted, so spending it on the
// degraded channel forfeits the reliability it was planned to buy; soft
// dynamic steals stay unaffected (a corrupted soft transmission simply
// retries later).
func (s *Scheduler) avoidRetx(ch frame.Channel) bool {
	if s.ctl == nil || s.opts.SingleChannel {
		return false
	}
	other := frame.ChannelA
	if ch == frame.ChannelA {
		other = frame.ChannelB
	}
	return s.ctl.Degraded(ch) && !s.ctl.Degraded(other) && !s.ctl.Suspect(other)
}

// adaptTick runs once per cycle: it publishes gauges, drives the failover
// state machine off channel A's suspicion, and replans when the controller
// reports divergence.
func (s *Scheduler) adaptTick(now timebase.Macrotick) {
	if s.ctl == nil {
		return
	}
	s.env.Gauges.SetFER("A", s.ctl.FER(frame.ChannelA))
	s.env.Gauges.SetFER("B", s.ctl.FER(frame.ChannelB))
	for _, ch := range adaptChannels {
		if s.ctl.Suspect(ch) {
			s.probeCycles[probeIdx(ch)]++
		} else {
			s.probeCycles[probeIdx(ch)] = 0
		}
	}

	// Sync loss is a blackout of the *schedule*: while the cluster's
	// clocks disagree beyond the precision bound, slot boundaries are
	// unreliable on every channel, so failover serves the static owners
	// redundantly and replanning is suppressed (the estimator's window is
	// dominated by timing losses, not by the physical BER).
	syncLost := s.env.SyncLost
	active := (s.ctl.Suspect(frame.ChannelA) || syncLost) && !s.opts.SingleChannel
	if active != s.failoverActive {
		s.failoverActive = active
		detail := "off"
		if active {
			detail = "on"
			if syncLost && !s.ctl.Suspect(frame.ChannelA) {
				detail = "sync-loss"
			}
			s.env.Gauges.Failover()
		}
		s.env.Record(trace.Event{
			Time:    now,
			Kind:    trace.EventFailover,
			Channel: frame.ChannelA,
			Detail:  detail,
		})
	}

	// Replanning reacts to elevated-but-finite error rates.  While the
	// primary channel looks blacked out its estimate is dominated by the
	// outage, which no retransmission count fixes — failover handles it,
	// and the estimate decays back to the physical BER once the channel
	// returns.
	if s.ctl.Suspect(frame.ChannelA) || syncLost {
		return
	}
	if newBER, ok := s.ctl.ReplanBER(frame.ChannelA, now); ok {
		s.replan(newBER, now)
	}
}

// replan recomputes the retransmission vector at the observed BER, shedding
// soft messages in criticality order while the goal is unreachable.  The
// shed set is rebuilt from scratch on every replan, never carried over, so
// messages shed during a bad episode come back as soon as a later replan
// (at a healed, lower BER) can afford them.
func (s *Scheduler) replan(ber float64, now timebase.Macrotick) {
	// Copies follow the steal path, and while the primary channel is
	// degraded the steal path routes them onto the healthy channel
	// (avoidRetx).  Plan them against that channel's observed error rate:
	// one copy on a healthy channel buys what several copies on the
	// degraded one would, and over-provisioning k would oversubscribe the
	// healthy channel's slack until late copies starve.
	retxBER := ber
	if s.avoidRetx(frame.ChannelA) {
		eb := s.ctl.EquivalentBER(frame.ChannelB)
		if eb < s.opts.BER {
			eb = s.opts.BER
		}
		if eb < retxBER {
			retxBER = eb
		}
	}

	shedNow := make(map[int]bool)
	victims := s.shedOrder()

	var plan reliability.Plan
	planned := false
	for {
		msgs := make([]reliability.Message, 0, len(s.planMeta))
		prev := make([]int, 0, len(s.planMeta))
		for _, e := range s.planMeta {
			if shedNow[e.id] {
				continue
			}
			msgs = append(msgs, e.msg)
			prev = append(prev, s.frames[e.id].k)
		}
		if len(msgs) == 0 {
			break
		}
		p, err := reliability.ReplanDual(msgs, ber, retxBER, s.opts.Unit, s.opts.Goal, s.opts.MaxRetx, prev)
		if err == nil {
			plan = p
			planned = true
			break
		}
		if len(victims) == 0 {
			// Even the hard messages alone cannot reach the goal at this
			// BER within the cap: keep the installed vector, shed all soft
			// traffic, and wait for the estimate to move.
			break
		}
		shedNow[victims[0]] = true
		victims = victims[1:]
	}

	if planned {
		i := 0
		for _, e := range s.planMeta {
			if shedNow[e.id] {
				s.frames[e.id].k = 0
				continue
			}
			s.frames[e.id].k = plan.Retransmissions[i]
			i++
		}
		s.stats.PlannedRetx = plan.Total()
	} else {
		for _, e := range s.planMeta {
			if shedNow[e.id] {
				s.frames[e.id].k = 0
			}
		}
	}
	s.applyShed(shedNow, now)

	s.ctl.NotifyReplan(ber, now)
	s.env.Gauges.Replan()
	detail := fmt.Sprintf("ber=%.3g planned=%d", ber, s.stats.PlannedRetx)
	if !planned {
		detail = fmt.Sprintf("ber=%.3g unreachable", ber)
	}
	s.env.Record(trace.Event{Time: now, Kind: trace.EventReplan, Detail: detail})
}

// adaptChannels is the fixed channel iteration order of adaptTick.
var adaptChannels = [2]frame.Channel{frame.ChannelA, frame.ChannelB}

// shedOrder returns the soft frame IDs in shedding order: least critical
// first (descending Priority value; lower Priority means more important),
// ties broken by descending frame ID for determinism.  Hard periodic
// messages are never shed.
func (s *Scheduler) shedOrder() []int {
	type cand struct{ id, prio int }
	var cands []cand
	for _, e := range s.planMeta {
		if e.soft {
			cands = append(cands, cand{id: e.id, prio: e.prio})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].prio != cands[j].prio {
			return cands[i].prio > cands[j].prio
		}
		return cands[i].id > cands[j].id
	})
	ids := make([]int, len(cands))
	for i, c := range cands {
		ids[i] = c.id
	}
	return ids
}

// applyShed installs the new shed set, tracing and counting the delta.
// Events are emitted in ascending frame-ID order so identical runs produce
// byte-identical traces (map iteration order is randomized).
func (s *Scheduler) applyShed(shedNow map[int]bool, now timebase.Macrotick) {
	shedList := sortedIDs(shedNow)
	for _, id := range shedList {
		if !s.isShed(id) {
			s.env.Gauges.Shed(1)
			s.env.Record(trace.Event{
				Time: now, Kind: trace.EventShed, FrameID: id, Detail: "shed",
			})
		}
	}
	for id, on := range s.shed {
		if on && !shedNow[id] {
			s.env.Gauges.Shed(-1)
			s.env.Record(trace.Event{
				Time: now, Kind: trace.EventShed, FrameID: id, Detail: "restored",
			})
		}
	}
	for id := range s.shed {
		s.shed[id] = false
	}
	for _, id := range shedList {
		if id >= 0 && id < len(s.shed) {
			s.shed[id] = true
		}
	}
}

func sortedIDs(set map[int]bool) []int {
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// failoverStatic serves the static slot owner's pending instance on
// channel B while failover is active.  The engine calls channel A's
// StaticSlot (and Result) for a slot before channel B's, so when A's
// transmission was corrupted the same instance is still pending here and
// the B copy delivers it within the same slot.
func (s *Scheduler) failoverStatic(slot int, now timebase.Macrotick) *sim.Transmission {
	m := s.env.StaticMsg(slot)
	if m == nil {
		return nil
	}
	ecu := s.env.ECU(m.Node)
	in := ecu.PeekStatic(slot, now)
	if in == nil {
		return nil
	}
	s.maybeSpawnCopies(in)
	return s.emit(sim.Transmission{
		Instance:  in,
		Channel:   frame.ChannelB,
		Duration:  s.env.FrameDuration(m),
		Retx:      in.Attempts > 0,
		Redundant: true,
		Detail:    "failover",
	})
}

// FailoverActive reports whether dual-channel failover is currently engaged
// (for tests and experiments).
func (s *Scheduler) FailoverActive() bool { return s.failoverActive }

// ShedIDs returns the currently shed frame IDs in ascending order (for
// tests and experiments).
func (s *Scheduler) ShedIDs() []int {
	ids := []int{}
	for id, on := range s.shed {
		if on {
			ids = append(ids, id)
		}
	}
	return ids
}
