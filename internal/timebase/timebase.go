// Package timebase models the FlexRay global time hierarchy and the geometry
// of the communication cycle.
//
// FlexRay time is hierarchical: the smallest unit visible to the protocol is
// the macrotick; a fixed number of macroticks form a communication cycle.
// Within one cycle four windows follow each other:
//
//	| static segment | dynamic segment | symbol window | network idle time |
//
// The static segment is divided into gNumberOfStaticSlots identical static
// slots of gdStaticSlot macroticks each.  The dynamic segment is divided into
// gNumberOfMinislots minislots of gdMinislot macroticks each.  All parameter
// names follow the FlexRay protocol specification v2.1 (gd* = global duration
// parameter, g* = global parameter, p* = node-local parameter).
package timebase

import (
	"errors"
	"fmt"
	"time"
)

// Macrotick is a duration measured in macroticks, the protocol-visible time
// quantum of a FlexRay cluster.  The wall-clock length of one macrotick is
// Config.MacrotickDuration.
type Macrotick int64

// Common errors returned by Config.Validate.
var (
	// ErrCycleOverflow is returned when the configured segments do not fit
	// into the communication cycle.
	ErrCycleOverflow = errors.New("timebase: segments exceed communication cycle length")
	// ErrNonPositive is returned when a structural parameter is zero or
	// negative.
	ErrNonPositive = errors.New("timebase: parameter must be positive")
	// ErrLatestTx is returned when pLatestTx lies outside the dynamic
	// segment.
	ErrLatestTx = errors.New("timebase: pLatestTx outside dynamic segment")
)

// Config holds the global timing parameters of a FlexRay cluster.  It is an
// immutable value: construct it, Validate it once, then share it freely.
type Config struct {
	// MacrotickDuration is the wall-clock length of one macrotick
	// (gdMacrotick).  The paper uses 1µs.
	MacrotickDuration time.Duration

	// MacroPerCycle is the number of macroticks in one communication cycle
	// (gdMacroPerCycle).
	MacroPerCycle Macrotick

	// StaticSlots is the number of static slots per cycle
	// (gNumberOfStaticSlots).
	StaticSlots int

	// StaticSlotLen is the length of one static slot in macroticks
	// (gdStaticSlot).
	StaticSlotLen Macrotick

	// Minislots is the number of minislots in the dynamic segment
	// (gNumberOfMinislots).
	Minislots int

	// MinislotLen is the length of one minislot in macroticks
	// (gdMinislot).
	MinislotLen Macrotick

	// SymbolWindowLen is the length of the symbol window in macroticks
	// (gdSymbolWindow).  May be zero.
	SymbolWindowLen Macrotick

	// DynamicSlotIdlePhase is the number of minislots of idle phase
	// appended after each dynamic transmission (gdDynamicSlotIdlePhase).
	DynamicSlotIdlePhase int

	// MinislotActionPointOffset is the action point offset inside a
	// minislot in macroticks (gdMinislotActionPointOffset).  It delays the
	// start of a dynamic transmission within its first minislot.
	MinislotActionPointOffset Macrotick

	// LatestTx is the last minislot index (1-based) in which a node may
	// still start a dynamic transmission (pLatestTx).  Zero means "derive
	// from the largest dynamic frame": see DeriveLatestTx.
	LatestTx int
}

// LatencyConfig returns the configuration the paper uses for the bandwidth
// utilization, latency and deadline-miss experiments (Figures 3-5): a 1ms
// communication cycle with a 0.75ms static segment and a configurable number
// of minislots (25, 50, 75 or 100 in the paper).
func LatencyConfig(minislots int) Config {
	const (
		macroPerCycle = 1000
		staticLen     = 750
		staticSlotLen = 25 // 30 static slots of 25 macroticks
		minislotLen   = 2
	)
	return Config{
		MacrotickDuration:         time.Microsecond,
		MacroPerCycle:             macroPerCycle,
		StaticSlots:               staticLen / staticSlotLen,
		StaticSlotLen:             staticSlotLen,
		Minislots:                 minislots,
		MinislotLen:               minislotLen,
		SymbolWindowLen:           0,
		DynamicSlotIdlePhase:      1,
		MinislotActionPointOffset: 1,
	}
}

// Validate checks structural consistency of the configuration.
func (c Config) Validate() error {
	switch {
	case c.MacrotickDuration <= 0:
		return fmt.Errorf("%w: MacrotickDuration %v", ErrNonPositive, c.MacrotickDuration)
	case c.MacroPerCycle <= 0:
		return fmt.Errorf("%w: MacroPerCycle %d", ErrNonPositive, c.MacroPerCycle)
	case c.StaticSlots <= 0:
		return fmt.Errorf("%w: StaticSlots %d", ErrNonPositive, c.StaticSlots)
	case c.StaticSlotLen <= 0:
		return fmt.Errorf("%w: StaticSlotLen %d", ErrNonPositive, c.StaticSlotLen)
	case c.Minislots < 0:
		return fmt.Errorf("%w: Minislots %d", ErrNonPositive, c.Minislots)
	case c.Minislots > 0 && c.MinislotLen <= 0:
		return fmt.Errorf("%w: MinislotLen %d", ErrNonPositive, c.MinislotLen)
	case c.SymbolWindowLen < 0:
		return fmt.Errorf("%w: SymbolWindowLen %d", ErrNonPositive, c.SymbolWindowLen)
	case c.DynamicSlotIdlePhase < 0:
		return fmt.Errorf("%w: DynamicSlotIdlePhase %d", ErrNonPositive, c.DynamicSlotIdlePhase)
	case c.MinislotActionPointOffset < 0:
		return fmt.Errorf("%w: MinislotActionPointOffset %d", ErrNonPositive, c.MinislotActionPointOffset)
	}
	if c.MinislotActionPointOffset >= c.MinislotLen && c.Minislots > 0 {
		return fmt.Errorf("timebase: MinislotActionPointOffset %d >= MinislotLen %d",
			c.MinislotActionPointOffset, c.MinislotLen)
	}
	used := c.StaticSegmentLen() + c.DynamicSegmentLen() + c.SymbolWindowLen
	if used > c.MacroPerCycle {
		return fmt.Errorf("%w: static %d + dynamic %d + symbol %d = %d > cycle %d",
			ErrCycleOverflow, c.StaticSegmentLen(), c.DynamicSegmentLen(),
			c.SymbolWindowLen, used, c.MacroPerCycle)
	}
	if c.LatestTx < 0 || c.LatestTx > c.Minislots {
		return fmt.Errorf("%w: pLatestTx %d, minislots %d", ErrLatestTx, c.LatestTx, c.Minislots)
	}
	return nil
}

// StaticSegmentLen returns the length of the static segment in macroticks.
func (c Config) StaticSegmentLen() Macrotick {
	return Macrotick(c.StaticSlots) * c.StaticSlotLen
}

// DynamicSegmentLen returns the length of the dynamic segment in macroticks.
func (c Config) DynamicSegmentLen() Macrotick {
	return Macrotick(c.Minislots) * c.MinislotLen
}

// NetworkIdleLen returns the length of the network idle time window (the
// remainder of the cycle after all configured windows).
func (c Config) NetworkIdleLen() Macrotick {
	return c.MacroPerCycle - c.StaticSegmentLen() - c.DynamicSegmentLen() - c.SymbolWindowLen
}

// CycleDuration returns the wall-clock duration of one communication cycle.
func (c Config) CycleDuration() time.Duration {
	return time.Duration(c.MacroPerCycle) * c.MacrotickDuration
}

// ToDuration converts a macrotick count to wall-clock time under this
// configuration.
func (c Config) ToDuration(m Macrotick) time.Duration {
	return time.Duration(m) * c.MacrotickDuration
}

// FromDuration converts wall-clock time to macroticks, rounding up so that a
// deadline never becomes earlier through conversion.
func (c Config) FromDuration(d time.Duration) Macrotick {
	if d <= 0 {
		return 0
	}
	mt := c.MacrotickDuration
	return Macrotick((int64(d) + int64(mt) - 1) / int64(mt))
}

// CycleOf returns the communication cycle index containing macrotick time t.
func (c Config) CycleOf(t Macrotick) int64 {
	if t < 0 {
		return -1
	}
	return int64(t / c.MacroPerCycle)
}

// CycleStart returns the macrotick time at which cycle starts.
func (c Config) CycleStart(cycle int64) Macrotick {
	return Macrotick(cycle) * c.MacroPerCycle
}

// OffsetInCycle returns the macrotick offset of t within its cycle.
func (c Config) OffsetInCycle(t Macrotick) Macrotick {
	return t % c.MacroPerCycle
}

// StaticSlotStart returns the macrotick time at which static slot `slot`
// (1-based, per the FlexRay spec) of `cycle` begins.
func (c Config) StaticSlotStart(cycle int64, slot int) Macrotick {
	return c.CycleStart(cycle) + Macrotick(slot-1)*c.StaticSlotLen
}

// DynamicSegmentStart returns the macrotick time at which the dynamic segment
// of `cycle` begins.
func (c Config) DynamicSegmentStart(cycle int64) Macrotick {
	return c.CycleStart(cycle) + c.StaticSegmentLen()
}

// MinislotStart returns the macrotick time at which minislot `ms` (1-based) of
// `cycle` begins.
func (c Config) MinislotStart(cycle int64, ms int) Macrotick {
	return c.DynamicSegmentStart(cycle) + Macrotick(ms-1)*c.MinislotLen
}

// SlotAt classifies the macrotick time t within its cycle.  It returns the
// window kind, and the 1-based static slot or minislot index when applicable
// (0 otherwise).
func (c Config) SlotAt(t Macrotick) (Window, int) {
	off := c.OffsetInCycle(t)
	if off < c.StaticSegmentLen() {
		return WindowStatic, int(off/c.StaticSlotLen) + 1
	}
	off -= c.StaticSegmentLen()
	if off < c.DynamicSegmentLen() {
		return WindowDynamic, int(off/c.MinislotLen) + 1
	}
	off -= c.DynamicSegmentLen()
	if off < c.SymbolWindowLen {
		return WindowSymbol, 0
	}
	return WindowIdle, 0
}

// MinislotsForFrame returns the number of minislots a dynamic transmission of
// `frameLen` macroticks occupies, including the dynamic slot idle phase.
func (c Config) MinislotsForFrame(frameLen Macrotick) int {
	if frameLen <= 0 {
		return c.DynamicSlotIdlePhase
	}
	n := int((frameLen + c.MinislotLen - 1) / c.MinislotLen)
	return n + c.DynamicSlotIdlePhase
}

// DeriveLatestTx computes pLatestTx for the largest dynamic frame length in
// macroticks: the last minislot in which a transmission of that size can
// still complete within the dynamic segment.  The result is at least zero.
func (c Config) DeriveLatestTx(maxFrameLen Macrotick) int {
	need := c.MinislotsForFrame(maxFrameLen)
	lt := c.Minislots - need + 1
	if lt < 0 {
		return 0
	}
	return lt
}

// Window identifies one of the four windows of a communication cycle.
type Window int

// Windows of the FlexRay communication cycle, in on-wire order.
const (
	WindowStatic Window = iota + 1
	WindowDynamic
	WindowSymbol
	WindowIdle
)

// String implements fmt.Stringer.
func (w Window) String() string {
	switch w {
	case WindowStatic:
		return "static"
	case WindowDynamic:
		return "dynamic"
	case WindowSymbol:
		return "symbol"
	case WindowIdle:
		return "idle"
	default:
		return fmt.Sprintf("Window(%d)", int(w))
	}
}
