package sim

import (
	"fmt"
	"math"

	"github.com/flexray-go/coefficient/internal/clocksync"
	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/trace"
)

// TimingOptions switches the engine from a perfect shared macrotick to
// per-node local clocks: each node's oscillator drifts, the
// internal/clocksync FTM loop measures sync-frame deviations per
// double-cycle and corrects offset and rate in network idle time, nodes
// that fall outside the precision bound (a quarter static slot, at
// least one macrotick) degrade through POC states (normal-active →
// normal-passive → halt after 4 passive double-cycles → reintegration
// after clocksync.ReintegrationCycles), and optional per-node bus
// guardians contain transmissions outside a node's scheduled window.
type TimingOptions struct {
	// DriftPPM bounds each node's oscillator error: per-node drift is
	// drawn uniformly in ±DriftPPM from the run seed (scenario drift
	// steps override it per node).  At most clocksync.MaxDriftPPM.
	DriftPPM float64
	// JitterMicroticks bounds the ± measurement noise of sync-frame
	// deviation measurements (0 = noise-free measurements).
	JitterMicroticks int64
	// SyncEnabled runs the FTM offset/rate correction loop; without it
	// clocks drift uncorrected (the experiment's broken baseline).
	SyncEnabled bool
	// Guardians enables per-node bus guardians gating static-segment
	// transmissions to the node's scheduled windows (the slots the static
	// schedule gives it).
	Guardians bool
}

func (t *TimingOptions) validate() error {
	if math.IsNaN(t.DriftPPM) || math.IsInf(t.DriftPPM, 0) {
		return fmt.Errorf("%w: DriftPPM %g not finite", ErrBadOptions, t.DriftPPM)
	}
	if t.DriftPPM < 0 {
		return fmt.Errorf("%w: negative DriftPPM %g", ErrBadOptions, t.DriftPPM)
	}
	if t.DriftPPM > clocksync.MaxDriftPPM {
		return fmt.Errorf("%w: DriftPPM %g exceeds %g", ErrBadOptions, t.DriftPPM, clocksync.MaxDriftPPM)
	}
	if t.JitterMicroticks < 0 {
		return fmt.Errorf("%w: negative JitterMicroticks %d", ErrBadOptions, t.JitterMicroticks)
	}
	return nil
}

// haltAfter is how many consecutive double-cycles a node may stay
// normal-passive before its CC halts.
const haltAfter = 4

// Seed tweaks for the timing layer's independent random streams.
const (
	seedClockDrift  uint64 = 0xD21F_7C10_0C45_0001
	seedClockJitter uint64 = 0x7177_E21C_10C4_0002
	seedReintegrate uint64 = 0x2E17_7E92_A7E0_0003
)

// nodeTiming is the per-node timing state.
type nodeTiming struct {
	id    int
	clock *clocksync.LocalClock
	state clocksync.POCState
	// syncSender marks nodes owning static frames: their lowest-ID static
	// frame doubles as the sync frame.
	syncSender bool
	// passiveDC counts consecutive double-cycles spent normal-passive.
	passiveDC int
	// syncLossStreak counts consecutive double-cycles without any
	// observable sync frame.
	syncLossStreak int
	// reintegrateAt is the cycle a halted node rejoins (-1 when not
	// halted).
	reintegrateAt int64
	// halts counts halt instances, salting the reintegration timeout.
	halts int
	// prevMid and prevValid carry the previous double-cycle's FTM
	// midpoint for the rate correction's paired measurements.
	prevMid   int64
	prevValid bool
	// lastMid is this double-cycle's FTM midpoint: the node's deviation
	// from cluster consensus (the basis of the sync-loss check, as
	// FlexRay judges sync by correction-term magnitude, not absolute
	// offset — a common-mode drift keeps the cluster synchronized).
	lastMid int64
	hasMid  bool
	// babbleTraced is the last cycle a contained babble of this node was
	// traced, per channel (-1 before the first), so guardian-block trace
	// events are rate-limited to one per babbler/channel/cycle.
	babbleTraced [2]int64
}

// timingState is the engine's timing-fault layer.
type timingState struct {
	opts  TimingOptions
	cfg   timebase.Config
	seed  uint64
	nodes map[int]*nodeTiming
	// order fixes the node iteration order for determinism.
	order  []int
	gauges *metrics.SyncGauges
	// precision is the largest tolerated clock deviation in macroticks,
	// a quarter static slot (at least 1): beyond it a node demotes to
	// normal-passive, and a static frame starting further than it from
	// the slot boundary is misaligned.
	precision timebase.Macrotick
	// refUT is the cluster's consensus time offset in microticks (the
	// midpoint of alive, non-halted clocks), updated per double-cycle;
	// slot alignment is judged against it, not against absolute global
	// time, so a common-mode drift does not misfire the guardians.
	refUT int64
	// senders and devs are endOfDoubleCycle's scratch: the observable
	// sync senders and one observer's deviations, which FTM sorts in
	// place.
	senders []*nodeTiming
	devs    []int64
}

// newTimingState builds the timing layer: one local clock per cluster
// node, drift drawn uniformly in ±DriftPPM from the run seed over nodes
// sorted by ID.
func newTimingState(opts TimingOptions, e *engine) *timingState {
	cfg := e.opts.Config
	precision := max(cfg.StaticSlotLen/4, 1)
	ts := &timingState{
		opts:      opts,
		cfg:       cfg,
		seed:      e.opts.Seed,
		precision: precision,
		nodes:     make(map[int]*nodeTiming, len(e.env.OrderedECUs())),
		gauges:    e.col.SyncHealth(),
	}
	cycleUT := int64(cfg.MacroPerCycle) * clocksync.MicroPerMacro
	driftRNG := fault.NewRNG(e.opts.Seed ^ seedClockDrift)
	for _, ecu := range e.env.OrderedECUs() {
		id := ecu.ID
		ts.order = append(ts.order, id)
		ppm := 0.0
		if opts.DriftPPM > 0 {
			ppm = (2*driftRNG.Float64() - 1) * opts.DriftPPM
		}
		var jitterRNG *fault.RNG
		if opts.JitterMicroticks > 0 {
			jitterRNG = fault.NewRNG(e.opts.Seed ^ seedClockJitter ^ uint64(id+1)*0x9E3779B97F4A7C15)
		}
		nt := &nodeTiming{
			id:            id,
			clock:         clocksync.NewLocalClock(ppm, cycleUT, opts.JitterMicroticks, jitterRNG),
			state:         clocksync.POCNormalActive,
			syncSender:    len(ecu.StaticFrameIDs()) > 0,
			reintegrateAt: -1,
			babbleTraced:  [2]int64{-1, -1},
		}
		ts.nodes[id] = nt
	}
	return ts
}

// cycleStart advances every clock by one cycle of oscillator error, applies
// scenario drift steps, and completes pending reintegrations.
func (ts *timingState) cycleStart(e *engine, cycle int64, now timebase.Macrotick) {
	for _, id := range ts.order {
		nt := ts.nodes[id]
		if nt.state == clocksync.POCHalt && cycle >= nt.reintegrateAt {
			// The startup integration phase completed: the node rejoins
			// on the running cluster's schedule with a fresh offset.
			nt.clock.Resync()
			// Reintegration acquires the *running cluster's* schedule, so
			// the fresh clock starts at the cluster consensus, not at the
			// global time base the cluster itself may have drifted from.
			nt.clock.ApplyOffsetCorrection(ts.refUT)
			nt.state = clocksync.POCNormalActive
			nt.reintegrateAt = -1
			nt.passiveDC, nt.syncLossStreak = 0, 0
			nt.prevValid = false
			ts.gauges.Reintegration()
			e.record(trace.Event{
				Time: now, Kind: trace.EventPOCState, Node: id,
				Detail: "normal-active reintegrated",
			})
		}
		if e.scn != nil {
			if ppm, ok := e.scn.DriftPPM(id, now); ok {
				nt.clock.SetDriftPPM(ppm)
			}
		}
		nt.clock.AdvanceCycle()
	}
}

// endOfDoubleCycle runs the FTM measurement/correction pass in the network
// idle time of odd cycles and drives POC degradation transitions.
func (ts *timingState) endOfDoubleCycle(e *engine, cycle int64, nit timebase.Macrotick) {
	// Observable sync senders: alive, transmitting (normal-active), and
	// not scripted into sync-frame suppression.
	senders := ts.senders[:0]
	for _, id := range ts.order {
		nt := ts.nodes[id]
		if !nt.syncSender || nt.state != clocksync.POCNormalActive {
			continue
		}
		if !e.nodeAlive(id, nit) {
			continue
		}
		if e.scn != nil && e.scn.SyncSuppressed(id, nit) {
			continue
		}
		senders = append(senders, nt)
	}
	ts.senders = senders

	// Measurement + correction per observer.  Halted CCs observe nothing.
	for _, id := range ts.order {
		nt := ts.nodes[id]
		if nt.state == clocksync.POCHalt {
			continue
		}
		devs := ts.devs[:0]
		for _, s := range senders {
			if s.id == id {
				continue
			}
			devs = append(devs, nt.clock.MeasureAgainst(s.clock))
		}
		ts.devs = devs
		ts.gauges.SyncFrame(len(devs))
		if len(devs) == 0 {
			nt.syncLossStreak++
			nt.prevValid = false
			nt.hasMid = false
			continue
		}
		nt.syncLossStreak = 0
		mid, err := clocksync.FTM(devs)
		if err != nil {
			nt.hasMid = false
			continue
		}
		nt.lastMid = mid
		nt.hasMid = true
		if ts.opts.SyncEnabled {
			// Offset correction in the NIT of the odd cycle; rate
			// correction from the change between paired double-cycle
			// midpoints.
			corr := mid / 2
			nt.clock.ApplyOffsetCorrection(corr)
			ts.gauges.Correction(float64(corr) / float64(clocksync.MicroPerMacro))
			if corr != 0 {
				e.record(trace.Event{
					Time: nit, Kind: trace.EventClockCorrection, Node: id,
					Seq: corr,
				})
			}
			if nt.prevValid {
				nt.clock.AdjustRate(-(mid - nt.prevMid) / 4)
			}
		}
		nt.prevMid = mid
		nt.prevValid = true
	}

	// POC transitions against the precision bound.  Sync quality is judged
	// by the magnitude of the node's FTM midpoint — its deviation from
	// cluster consensus — the way FlexRay demotes on correction terms
	// exceeding their limits; the absolute offset is irrelevant (a
	// common-mode drift keeps the cluster mutually synchronized).
	lossEvents := 0
	for _, id := range ts.order {
		nt := ts.nodes[id]
		var devMT timebase.Macrotick
		if nt.hasMid {
			devMT = timebase.Macrotick(nt.lastMid / clocksync.MicroPerMacro)
			if devMT < 0 {
				devMT = -devMT
			}
		}
		lost := (nt.hasMid && devMT > ts.precision) || nt.syncLossStreak >= 2
		switch nt.state {
		case clocksync.POCNormalActive:
			if lost {
				lossEvents++
				ts.gauges.SyncLoss()
				nt.state = clocksync.POCNormalPassive
				nt.passiveDC = 0
				ts.gauges.Passive()
				e.record(trace.Event{
					Time: nit, Kind: trace.EventSyncLoss, Node: id,
					Seq: int64(devMT),
				})
				e.record(trace.Event{
					Time: nit, Kind: trace.EventPOCState, Node: id,
					Detail: nt.state.String(),
				})
			}
		case clocksync.POCNormalPassive:
			// Promotion needs positive evidence — an in-bound FTM midpoint —
			// not merely the absence of measurements: a cluster whose sync
			// senders all demoted must starve its way to halt, not flap back
			// to active on silence.
			if nt.hasMid && !lost {
				nt.state = clocksync.POCNormalActive
				nt.passiveDC = 0
				e.record(trace.Event{
					Time: nit, Kind: trace.EventPOCState, Node: id,
					Detail: nt.state.String(),
				})
				break
			}
			lossEvents++
			ts.gauges.SyncLoss()
			nt.passiveDC++
			if nt.passiveDC >= haltAfter {
				nt.state = clocksync.POCHalt
				nt.halts++
				ts.gauges.Halt()
				reSeed := ts.seed ^ seedReintegrate ^
					uint64(id+1)*0x9E3779B97F4A7C15 ^ uint64(nt.halts)<<32
				nt.reintegrateAt = cycle + int64(clocksync.ReintegrationCycles(reSeed))
				e.record(trace.Event{
					Time: nit, Kind: trace.EventPOCState, Node: id,
					Detail: nt.state.String(),
				})
			}
		}
	}

	// Cluster precision: largest pairwise offset among alive, non-halted
	// nodes, in macroticks.
	first := true
	var loUT, hiUT int64
	for _, id := range ts.order {
		nt := ts.nodes[id]
		if nt.state == clocksync.POCHalt || !e.nodeAlive(id, nit) {
			continue
		}
		off := nt.clock.Offset()
		if first {
			loUT, hiUT = off, off
			first = false
			continue
		}
		if off < loUT {
			loUT = off
		}
		if off > hiUT {
			hiUT = off
		}
	}
	precisionMT := float64(hiUT-loUT) / float64(clocksync.MicroPerMacro)
	ts.gauges.ObserveOffset(precisionMT)
	// With no live, un-halted node left there is no cluster to be in
	// sync with (halted nodes raise no loss events).
	e.env.SyncLost = first || lossEvents > 0 || precisionMT > float64(ts.precision)
	if !first {
		ts.refUT = (loUT + hiUT) / 2
	}
}

// silenced returns the drop detail for a node whose POC state forbids
// transmitting ("" when the node may transmit).
func (ts *timingState) silenced(nodeID int) string {
	nt := ts.nodes[nodeID]
	if nt == nil {
		return ""
	}
	switch nt.state {
	case clocksync.POCNormalPassive:
		return "poc-passive"
	case clocksync.POCHalt:
		return "poc-halt"
	}
	return ""
}

// staticGate judges a scheduled static-segment transmission by node nodeID
// against its local clock: with a drifted clock the node starts the frame
// at slotStart + offset instead of the slot boundary.  Scheduler-granted
// slots count as in-window (CoEfficient's cooperative slot multiplexing
// flows through the CHI, so the guardian follows the scheduler's grants);
// only *alignment* is judged here, while slot *ownership* gating applies
// to unscheduled traffic (babbleCollision).
// Returns (blocked, forced): blocked means the node's own guardian vetoed
// the misaligned transmission (nothing reaches the wire); forced is a
// non-empty fault detail when the transmission proceeds but is
// unreceivable (misaligned without a guardian).
func (ts *timingState) staticGate(nodeID int, slotStart timebase.Macrotick) (bool, string) {
	nt := ts.nodes[nodeID]
	if nt == nil {
		return false, ""
	}
	// Alignment is relative to the cluster consensus the receivers run on,
	// not to absolute global time: a common-mode drift shifts everyone's
	// slot boundaries together and stays receivable.
	dev := timebase.Macrotick((nt.clock.Offset() - ts.refUT) / clocksync.MicroPerMacro)
	if dev < 0 {
		dev = -dev
	}
	if dev <= ts.precision {
		return false, ""
	}
	if ts.opts.Guardians {
		return true, ""
	}
	return false, "misaligned"
}

// babbleCollision reports whether a scripted babbling node collides with
// the legitimate transmission of the slot starting at slotStart on ch.
// The static schedule gives each slot one owner, ownerNode (-1 for an
// unassigned slot), so every other babbler is outside its windows: with
// guardians enabled its own guardian contains the babble (counted, traced
// once per babbler/channel/cycle) and the slot stays clean.
func (ts *timingState) babbleCollision(e *engine, cycle int64, ch frame.Channel, slotStart timebase.Macrotick, ownerNode int) bool {
	if e.scn == nil {
		return false
	}
	collision := false
	for _, b := range e.scn.Babblers() {
		if b == ownerNode || !e.nodeAlive(b, slotStart) || !e.scn.Babbling(b, slotStart) {
			continue
		}
		if n, ok := e.opts.Cluster.Node(b); !ok || !n.Attached(ch) {
			continue
		}
		if ts.opts.Guardians {
			// Guardian contains the babble at the node boundary.
			ts.gauges.GuardianBlock()
			if last := &ts.nodes[b].babbleTraced[ch-frame.ChannelA]; *last != cycle {
				*last = cycle
				e.record(trace.Event{
					Time: slotStart, Kind: trace.EventGuardianBlock,
					Node: b, Channel: ch, Detail: "babble",
				})
			}
			continue
		}
		collision = true
	}
	return collision
}
