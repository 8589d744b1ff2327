package sim_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/node"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"
)

// consult is one DynamicSlot call as the engine made it.
type consult struct {
	ch                           frame.Channel
	cycle                        int64
	counter, minislot, remaining int
	now                          timebase.Macrotick
}

// walkRecorder answers every dynamic slot at random and records what the
// engine asked and how it treated each answer.  The engine calls Result
// for a transmission it accepted before its next scheduler call, and
// never for one it rejected, so need[i] is the minislot count of call i's
// accepted frame and 0 when the answer was nil or rejected.
type walkRecorder struct {
	env     *sim.Env
	rng     *rand.Rand
	dynIDs  []int
	calls   []consult
	need    []int
	pending int
	tx      sim.Transmission
	// answers counts non-nil answers, accepted those the engine sent.
	answers, accepted int
}

func (w *walkRecorder) Name() string                         { return "walk-recorder" }
func (w *walkRecorder) Init(env *sim.Env) error              { w.env = env; w.pending = -1; return nil }
func (w *walkRecorder) CycleStart(int64, timebase.Macrotick) { w.pending = -1 }
func (w *walkRecorder) StaticSlot(frame.Channel, int64, int, timebase.Macrotick) *sim.Transmission {
	w.pending = -1
	return nil
}

func (w *walkRecorder) DynamicSlot(ch frame.Channel, cycle int64, counter, minislot, remaining int, now timebase.Macrotick) *sim.Transmission {
	w.calls = append(w.calls, consult{ch, cycle, counter, minislot, remaining, now})
	w.need = append(w.need, 0)
	w.pending = len(w.calls) - 1
	cfg := w.env.Cfg
	m := w.env.DynamicMsg(counter)
	dur := cfg.MinislotLen * timebase.Macrotick(1+w.rng.Intn(3)) // 1–3 minislots of wire time
	switch r := w.rng.Float64(); {
	case r < 0.3:
		return nil
	case r < 0.65:
		// The slot's own frame; near the segment's end it may not fit.
	case r < 0.8:
		m = w.env.DynamicMsg(w.dynIDs[w.rng.Intn(len(w.dynIDs))]) // rejected unless it is the slot's
	case r < 0.9:
		dur = cfg.MinislotLen * timebase.Macrotick(remaining+1) // more minislots than remain
	default:
		w.answers++
		w.tx = sim.Transmission{Channel: ch, Duration: dur} // nil instance
		return &w.tx
	}
	w.answers++
	in := &node.Instance{Msg: m, Seq: int64(len(w.calls)), Release: now, Deadline: node.NoDeadline}
	w.tx = sim.Transmission{Instance: in, Channel: ch, Duration: dur}
	return &w.tx
}

func (w *walkRecorder) Result(tx *sim.Transmission, _ bool, _ timebase.Macrotick) {
	if w.pending >= 0 && tx == &w.tx {
		w.need[w.pending] = w.env.Cfg.MinislotsForFrame(tx.Duration)
		w.accepted++
	}
	w.pending = -1
}

func (w *walkRecorder) InstanceDropped(*node.Instance, timebase.Macrotick) {}

// referenceWalk replays one channel's dynamic segment minislot by
// minislot, as the engine walked it before it skipped unowned slot
// counters: every counter passes in one minislot unless it starts an
// accepted frame, and the scheduler is consulted up to pLatestTx.  It
// returns the calls the engine must have made at owned counters, reading
// each answer's fate from the recorded calls.
func referenceWalk(env *sim.Env, ch frame.Channel, cycle int64, calls []consult, need []int) []consult {
	cfg := env.Cfg
	var want []consult
	minislot, counter := 1, cfg.StaticSlots+1
	for minislot <= cfg.Minislots {
		if minislot <= env.LatestTx && env.DynamicMsg(counter) != nil {
			k := len(want)
			want = append(want, consult{
				ch: ch, cycle: cycle, counter: counter, minislot: minislot,
				remaining: cfg.Minislots - minislot + 1,
				now:       cfg.DynamicSegmentStart(cycle) + timebase.Macrotick(minislot-1)*cfg.MinislotLen,
			})
			if k < len(calls) && need[k] > 0 {
				minislot += need[k]
				counter++
				continue
			}
		}
		minislot++
		counter++
	}
	return want
}

// TestDynamicWalkMatchesMinislotReference pins the owned-slot walk to the
// minislot-by-minislot walk it replaced, over random geometries with gaps
// between the dynamic frame IDs, pLatestTx below the minislot count,
// multi-minislot frames and rejected transmissions: every consulted
// (channel, cycle, slot counter, minislot, remaining, now) must be the
// reference walk's, in order.
func TestDynamicWalkMatchesMinislotReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261020))
	accepted, rejected, multi := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		cfg := timebase.Config{
			MacrotickDuration:         time.Microsecond,
			MacroPerCycle:             1000,
			StaticSlots:               2 + rng.Intn(10),
			StaticSlotLen:             20,
			Minislots:                 1 + rng.Intn(60),
			MinislotLen:               2 + timebase.Macrotick(rng.Intn(5)),
			DynamicSlotIdlePhase:      rng.Intn(3),
			MinislotActionPointOffset: 1,
		}
		if rng.Intn(2) == 0 {
			cfg.LatestTx = 1 + rng.Intn(cfg.Minislots)
		}
		set := signal.Set{Name: "walk", Messages: []signal.Message{
			{ID: 1, Name: "s1", Node: 0, Kind: signal.Periodic,
				Period: time.Millisecond, Deadline: time.Millisecond, Bits: 16},
		}}
		var dynIDs []int
		for id := cfg.StaticSlots + 1; id <= cfg.StaticSlots+cfg.Minislots+5; id++ {
			if rng.Intn(3) == 0 || (id == cfg.StaticSlots+cfg.Minislots+5 && len(dynIDs) == 0) {
				dynIDs = append(dynIDs, id)
				set.Messages = append(set.Messages, signal.Message{
					ID: id, Name: fmt.Sprintf("d%d", id), Node: rng.Intn(3), Kind: signal.Aperiodic,
					Period: time.Millisecond, Deadline: time.Millisecond, Bits: 8 * (1 + rng.Intn(8)),
				})
			}
		}
		rec := &walkRecorder{rng: rand.New(rand.NewSource(int64(trial))), dynIDs: dynIDs}
		res, err := sim.Run(sim.Options{
			Config: cfg, Workload: set, Mode: sim.Streaming,
			Duration: 4 * time.Millisecond, Seed: uint64(trial),
		}, rec)
		if err != nil {
			t.Fatalf("trial %d: Run: %v", trial, err)
		}
		next := 0
		for cycle := int64(0); cycle < res.Cycles; cycle++ {
			for _, ch := range []frame.Channel{frame.ChannelA, frame.ChannelB} {
				want := referenceWalk(rec.env, ch, cycle, rec.calls[next:], rec.need[next:])
				for k, w := range want {
					if next+k >= len(rec.calls) || rec.calls[next+k] != w {
						var got any = "no call"
						if next+k < len(rec.calls) {
							got = rec.calls[next+k]
						}
						t.Fatalf("trial %d (%+v, pLatestTx %d, dynamic IDs %v): consult %d of cycle %d channel %v = %+v, reference %+v",
							trial, cfg, rec.env.LatestTx, dynIDs, k, cycle, ch, got, w)
					}
					if rec.need[next+k] > 1 {
						multi++
					}
				}
				next += len(want)
			}
		}
		if next != len(rec.calls) {
			t.Fatalf("trial %d: engine made %d consults, reference walk %d", trial, len(rec.calls), next)
		}
		accepted += rec.accepted
		rejected += rec.answers - rec.accepted
	}
	if accepted == 0 || rejected == 0 || multi == 0 {
		t.Fatalf("walks accepted %d answers (%d over several minislots) and rejected %d; all must occur",
			accepted, multi, rejected)
	}
}
