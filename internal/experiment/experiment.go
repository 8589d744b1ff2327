// Package experiment reproduces the paper's evaluation (Section IV): one
// harness per figure, each building the paper's workloads and cycle
// configurations, running both CoEfficient and the FSPEC baseline on the
// simulator, and emitting the rows/series the paper plots.
//
// # Fault-model calibration
//
// The paper's two settings, "BER = 10^-7" and "BER = 10^-9", "correspond to
// different reliability goals" (Section IV-A): the physical fault rate of
// the channel stays what it is; the label selects how strict a goal the
// schedulers must chase.  The harness therefore injects faults at the
// BER-7 physical rate (ScenarioBER = 1e-7, where a several-second run still
// observes transient faults on the large fast frames) in both settings and
// maps the labels to goals: BER-7 → ρ = 0.999, BER-9 → ρ = 0.99999.  The
// stricter BER-9 goal forces more planned retransmission copies, which is
// why the paper's BER-9 curves show higher running times and latencies
// despite rarer faults — the same trend this harness reproduces.
//
// # Bus speed calibration
//
// The paper's cycle geometry (e.g. 40-macrotick static slots) cannot carry
// its message sizes (up to 1742-bit payloads) at FlexRay's nominal
// 10 Mbit/s.  Each setup therefore derives the smallest bus bit rate (in
// 10 Mbit/s steps) at which every static frame fits its slot and the
// largest dynamic frame fits the dynamic segment, preserving all of the
// paper's ratios.
package experiment

import (
	"errors"
	"fmt"
	"time"

	"github.com/flexray-go/coefficient/internal/core"
	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/fspec"
	"github.com/flexray-go/coefficient/internal/reliability"
	"github.com/flexray-go/coefficient/internal/schedule"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"
)

// ErrSetup is returned when a workload cannot be mapped onto a cycle
// configuration.
var ErrSetup = errors.New("experiment: invalid setup")

// ScenarioBER is the physical bit error rate used by both scenarios (see
// the package comment on fault-model calibration).
const ScenarioBER = 1e-7

// PlanUnit is the time unit u over which reliability goals are evaluated.
const PlanUnit = time.Second

// Scenario binds a paper label to a reliability goal.
type Scenario struct {
	// Label is the paper's name for the setting ("BER-7", "BER-9").
	Label string
	// BER is the physical bit error rate.
	BER float64
	// Goal is the reliability goal ρ.
	Goal float64
}

// BER7 returns the paper's BER = 10^-7 setting: the moderate goal.
func BER7() Scenario { return Scenario{Label: "BER-7", BER: ScenarioBER, Goal: 0.999} }

// BER9 returns the paper's BER = 10^-9 setting: the strict goal.
func BER9() Scenario { return Scenario{Label: "BER-9", BER: ScenarioBER, Goal: 0.99999} }

// Setup is a derived cycle configuration plus bus speed.
type Setup struct {
	// Config is the cluster timing configuration.
	Config timebase.Config
	// BitRate is the derived bus speed in bits/s.
	BitRate int64
}

// bitRateStep quantizes derived bus speeds.
const bitRateStep = 10_000_000

// deriveBitRate returns the smallest bus speed (multiple of 10 Mbit/s) at
// which every static frame of the set fits one static slot and the largest
// dynamic frame fits the dynamic segment.
func deriveBitRate(set signal.Set, cfg timebase.Config) (int64, error) {
	need := int64(bitRateStep)
	slotSec := float64(cfg.ToDuration(cfg.StaticSlotLen)) / float64(time.Second)
	for _, m := range set.Static() {
		wire := float64(frame.WireBits(m.Bytes()))
		if r := int64(wire / slotSec); r >= need {
			need = r + 1
		}
	}
	// The largest dynamic frame must fit the usable dynamic window.
	if cfg.Minislots > 0 {
		window := cfg.MinislotLen * timebase.Macrotick(cfg.Minislots-cfg.DynamicSlotIdlePhase)
		if window <= 0 {
			return 0, fmt.Errorf("%w: dynamic segment too small", ErrSetup)
		}
		winSec := float64(cfg.ToDuration(window)) / float64(time.Second)
		for _, m := range set.Dynamic() {
			wire := float64(frame.WireBits(m.Bytes()))
			if r := int64(wire / winSec); r >= need {
				need = r + 1
			}
		}
	}
	// Round up to the next step.
	steps := (need + bitRateStep - 1) / bitRateStep
	return steps * bitRateStep, nil
}

// RunningTimeSetup builds the Figures 1-2 configuration: a 5 ms cycle with
// a 3 ms static budget holding `staticSlots` slots (80 or 120 in the
// paper), the remainder minislots.
func RunningTimeSetup(set signal.Set, staticSlots int) (Setup, error) {
	if staticSlots <= 0 {
		return Setup{}, fmt.Errorf("%w: staticSlots %d", ErrSetup, staticSlots)
	}
	const (
		macroPerCycle = 5000
		staticBudget  = 3000
		minislotLen   = 8
		idleTail      = 40
	)
	slotLen := timebase.Macrotick(staticBudget / staticSlots)
	if slotLen < 2 {
		return Setup{}, fmt.Errorf("%w: %d static slots leave %d-macrotick slots",
			ErrSetup, staticSlots, slotLen)
	}
	staticLen := slotLen * timebase.Macrotick(staticSlots)
	minislots := int((macroPerCycle - staticLen - idleTail) / minislotLen)
	cfg := timebase.Config{
		MacrotickDuration:         time.Microsecond,
		MacroPerCycle:             macroPerCycle,
		StaticSlots:               staticSlots,
		StaticSlotLen:             slotLen,
		Minislots:                 minislots,
		MinislotLen:               minislotLen,
		DynamicSlotIdlePhase:      1,
		MinislotActionPointOffset: 2,
	}
	return finishSetup(set, cfg)
}

// LatencySetup builds the Figures 3-5 configuration: a 1 ms cycle with a
// 0.75 ms static segment divided into `staticSlots` slots and `minislots`
// two-macrotick minislots (25..100 in the paper).
func LatencySetup(set signal.Set, staticSlots, minislots int) (Setup, error) {
	if staticSlots <= 0 || minislots < 0 {
		return Setup{}, fmt.Errorf("%w: staticSlots %d, minislots %d",
			ErrSetup, staticSlots, minislots)
	}
	const (
		macroPerCycle = 1000
		staticBudget  = 750
		minislotLen   = 2
	)
	slotLen := timebase.Macrotick(staticBudget / staticSlots)
	if slotLen < 2 {
		return Setup{}, fmt.Errorf("%w: %d static slots leave %d-macrotick slots",
			ErrSetup, staticSlots, slotLen)
	}
	cfg := timebase.Config{
		MacrotickDuration:         time.Microsecond,
		MacroPerCycle:             macroPerCycle,
		StaticSlots:               staticSlots,
		StaticSlotLen:             slotLen,
		Minislots:                 minislots,
		MinislotLen:               minislotLen,
		DynamicSlotIdlePhase:      1,
		MinislotActionPointOffset: 1,
	}
	// Streaming experiments have hard deadlines: the static schedule
	// table must be feasible, or the whole run would just count
	// structural misses.
	tbl, err := schedule.Build(set, cfg)
	if err != nil {
		return Setup{}, fmt.Errorf("%w: %v", ErrSetup, err)
	}
	if !tbl.Feasible() {
		inf := tbl.Infeasible()
		return Setup{}, fmt.Errorf("%w: %d static messages cannot meet their deadlines (first: %s — %s)",
			ErrSetup, len(inf), inf[0].Message.Name, inf[0].Reason)
	}
	return finishSetup(set, cfg)
}

func finishSetup(set signal.Set, cfg timebase.Config) (Setup, error) {
	if err := cfg.Validate(); err != nil {
		return Setup{}, fmt.Errorf("%w: %v", ErrSetup, err)
	}
	rate, err := deriveBitRate(set, cfg)
	if err != nil {
		return Setup{}, err
	}
	return Setup{Config: cfg, BitRate: rate}, nil
}

// FSPECCopies returns FSPEC's per-channel blind copy count for a scenario:
// the baseline retransmits *all* segments uniformly, without giving itself
// credit for the channel-B duplicates — the smallest uniform k with
// ∏ (1 − p_z^{k+1})^{u/T_z} ≥ ρ, plus one for the original, capped at
// maxCopies.  This is the paper's "best-effort retransmission for all
// segments", which "overlooks the fact that not all segments will fail".
func FSPECCopies(set signal.Set, sc Scenario, maxCopies int) int {
	if maxCopies <= 0 {
		maxCopies = 8
	}
	msgs := make([]reliability.Message, 0, len(set.Messages))
	for _, m := range set.Messages {
		period := m.Period
		if period <= 0 {
			period = m.Deadline
		}
		msgs = append(msgs, reliability.Message{
			Name:   m.Name,
			Bits:   frame.WireBits(m.Bytes()),
			Period: period,
		})
	}
	plan, err := reliability.PlanUniform(msgs, sc.BER, PlanUnit, sc.Goal, maxCopies)
	if err != nil {
		return maxCopies
	}
	c := plan.Retransmissions[0] + 1
	if c > maxCopies {
		c = maxCopies
	}
	return c
}

// schedulers builds the pair compared in every figure.
func schedulers(set signal.Set, sc Scenario) []sim.Scheduler {
	return []sim.Scheduler{
		core.New(core.Options{BER: sc.BER, Goal: sc.Goal, Unit: PlanUnit}),
		fspec.New(fspec.Options{Copies: FSPECCopies(set, sc, 0)}),
	}
}

// injectors builds the per-channel fault injectors for a scenario.  The
// channel streams are CellSeed-derived (see seed.go): the old seed*2+1 /
// seed*2+2 offsets collided across base seeds (channel A of seed 2s+1
// replayed the arrival stream of seed s's simulation, since sim.Run
// consumes the raw seed).
func injectors(sc Scenario, seed uint64) (*fault.BERInjector, *fault.BERInjector, error) {
	a, err := fault.NewBERInjector(sc.BER, deriveSeed(seed, seedStreamChannelA, 0))
	if err != nil {
		return nil, nil, err
	}
	b, err := fault.NewBERInjector(sc.BER, deriveSeed(seed, seedStreamChannelB, 0))
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// Durations used by the streaming figures.
const (
	defaultStreaming = 2 * time.Second
	quickStreaming   = 300 * time.Millisecond
	defaultBatch     = 100
	quickBatch       = 20
)

// streamDuration picks the simulated horizon.
func streamDuration(quick bool) time.Duration {
	if quick {
		return quickStreaming
	}
	return defaultStreaming
}

// batchInstances picks the per-message batch size.
func batchInstances(quick bool) int {
	if quick {
		return quickBatch
	}
	return defaultBatch
}
