// Local clock model for the cluster simulator: LocalClock gives every node
// of the discrete-event simulator (internal/sim) its own oscillator — a
// parts-per-million rate error plus bounded measurement jitter — so the
// engine can run the offset/rate correction loop against *protocol traffic*
// and surface the timing faults a perfect shared macrotick hides.
//
// Offsets are tracked in microticks, the sub-macrotick unit node clocks
// actually count in (FlexRay: µT = 25ns against a 1µs macrotick), so that a
// 100ppm oscillator drifting half a macrotick per cycle accumulates error
// instead of rounding to zero.
package clocksync

import (
	"math"

	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/timebase"
)

// MaxDriftPPM bounds an oscillator's rate error in parts per million: at
// ±1e6 ppm a clock stops or runs at double speed, and beyond it the
// per-cycle drift SetDriftPPM converts to microticks leaves int64's range
// for large enough values.  The engine's timing options and the scenario
// DSL's drift steps reject errors beyond it.
const MaxDriftPPM = 1e6

// MicroPerMacro is the number of microticks per macrotick (25ns microticks
// against the paper's 1µs macrotick).
const MicroPerMacro int64 = 40

// POCState is a node's protocol operation control state, abridged to the
// degradation chain the simulator models: a synchronized node is
// normal-active; losing sync quality demotes it to normal-passive (receive
// and correct, but keep the bus clean by not transmitting); persistent sync
// loss halts the CC, after which only reintegration (ReintegrationCycles)
// brings it back.
type POCState int

// POC degradation states.
const (
	// POCNormalActive is full operation: the node transmits and receives.
	POCNormalActive POCState = iota + 1
	// POCNormalPassive receives and applies corrections but does not
	// transmit (clock deviation beyond the precision bound, or too few
	// sync frames observed).
	POCNormalPassive
	// POCHalt has stopped the communication controller; the node must
	// reintegrate through startup before transmitting again.
	POCHalt
)

// String implements fmt.Stringer.
func (s POCState) String() string {
	switch s {
	case POCNormalActive:
		return "normal-active"
	case POCNormalPassive:
		return "normal-passive"
	case POCHalt:
		return "halt"
	default:
		return "unknown"
	}
}

// listenRange is the randomized listen-timeout range in cycles;
// randomization keeps halted nodes from retrying in lockstep.
const listenRange = 8

// ReintegrationCycles returns how many communication cycles a halted node
// needs before it can rejoin a running cluster: a randomized listen window
// plus the two double-cycles of consistent sync-frame observation that
// integration requires.  The caller mixes the node identity and halt
// instance into seed so repeated halts of the same node draw fresh
// timeouts while the whole run stays deterministic.
func ReintegrationCycles(seed uint64) int {
	rng := fault.NewRNG(seed ^ 0x57A27)
	return 2 + rng.Intn(listenRange) + 4
}

// LocalClock is one node's view of global time: an accumulated offset in
// microticks, advanced every communication cycle by the oscillator's rate
// error and pulled back by the learned FTM corrections.
type LocalClock struct {
	// offsetUT is the deviation from the global time base in microticks
	// (positive = the local clock runs ahead).
	offsetUT int64
	// driftPerCycleUT is the uncorrected oscillator error per cycle.
	driftPerCycleUT int64
	// rateCorrUT is the learned per-cycle rate correction.
	rateCorrUT int64
	// cycleUT is the cycle length in microticks (drift conversions).
	cycleUT int64
	// jitterUT bounds the symmetric per-measurement noise.
	jitterUT int64
	// rng draws the measurement jitter; deterministic per seed.
	rng *fault.RNG
}

// NewLocalClock returns a clock with the given oscillator error in parts
// per million over cycles of cycleUT microticks.  jitterUT bounds the
// ± measurement noise; rng must be non-nil when jitterUT > 0.
func NewLocalClock(ppm float64, cycleUT, jitterUT int64, rng *fault.RNG) *LocalClock {
	c := &LocalClock{cycleUT: cycleUT, jitterUT: jitterUT, rng: rng}
	c.SetDriftPPM(ppm)
	return c
}

// SetDriftPPM changes the oscillator error (a scenario drift step: EMI or
// thermal runaway knocking the crystal off its nominal rate).  |ppm| must
// not exceed MaxDriftPPM.
func (c *LocalClock) SetDriftPPM(ppm float64) {
	c.driftPerCycleUT = int64(math.Round(ppm * float64(c.cycleUT) / 1e6))
}

// DriftPerCycle returns the per-cycle oscillator error in microticks.
func (c *LocalClock) DriftPerCycle() int64 { return c.driftPerCycleUT }

// AdvanceCycle accumulates one cycle of oscillator error net of the learned
// rate correction.
func (c *LocalClock) AdvanceCycle() {
	c.offsetUT += c.driftPerCycleUT - c.rateCorrUT
}

// Offset returns the deviation from global time in microticks.
func (c *LocalClock) Offset() int64 { return c.offsetUT }

// OffsetMacroticks returns the deviation rounded to whole macroticks
// (toward zero, as the CC's integer arithmetic does).
func (c *LocalClock) OffsetMacroticks() timebase.Macrotick {
	return timebase.Macrotick(c.offsetUT / MicroPerMacro)
}

// MeasureAgainst returns this node's arrival-time deviation measurement of
// the sender's sync frame: the clock difference perturbed by measurement
// noise.
func (c *LocalClock) MeasureAgainst(sender *LocalClock) int64 {
	d := sender.offsetUT - c.offsetUT
	if c.jitterUT > 0 && c.rng != nil {
		d += int64(c.rng.Intn(int(2*c.jitterUT+1))) - c.jitterUT
	}
	return d
}

// ApplyOffsetCorrection shifts the clock by ut microticks (the FTM offset
// correction applied in the network idle time of odd cycles).
func (c *LocalClock) ApplyOffsetCorrection(ut int64) {
	c.offsetUT += ut
}

// AdjustRate accumulates a rate-correction delta (per cycle, microticks).
func (c *LocalClock) AdjustRate(deltaUT int64) {
	c.rateCorrUT += deltaUT
}

// Resync zeroes the accumulated offset and forgets the learned rate
// correction: the state of a node that just reintegrated off the running
// cluster's schedule.  The oscillator error itself persists — a broken
// crystal stays broken through a restart.
func (c *LocalClock) Resync() {
	c.offsetUT = 0
	c.rateCorrUT = 0
}
