package fault

import (
	"fmt"
	"sort"
	"sync"

	"github.com/flexray-go/coefficient/internal/timebase"
)

// TimeVarying is an Injector whose fault process depends on the bus time.
// The simulation engine passes the transmission start time so scripted
// fault timelines (BER steps, ramps, burst episodes) stay aligned with the
// macrotick clock regardless of how many transmissions occur.
type TimeVarying interface {
	Injector
	// CorruptsAt reports whether a transmission of `bits` bits starting at
	// macrotick `at` is corrupted.
	CorruptsAt(bits int, at timebase.Macrotick) bool
}

// OpenEnd marks a phase or window that lasts until the end of the run.
const OpenEnd timebase.Macrotick = 1<<63 - 1

// BERPhase is one window of a piecewise bit-error-rate profile.  Within
// [Start, End) the BER ramps linearly from From to To; a step is a phase
// with From == To.  Phases must not overlap; outside every phase the
// profile's base BER applies.
type BERPhase struct {
	// Start and End bound the phase in macroticks, half-open [Start, End).
	// End == OpenEnd keeps the phase active until the end of the run.
	Start, End timebase.Macrotick
	// From and To are the BER at Start and End.
	From, To float64
}

// BurstWindow is one Gilbert–Elliott burst episode.  Within [Start, End)
// the two-state model replaces the BER profile; each window keeps its own
// channel state, starting in the Good state.  A window over [0, OpenEnd)
// runs the chain for the whole run.
type BurstWindow struct {
	// Start and End bound the episode in macroticks, half-open [Start, End).
	Start, End timebase.Macrotick
	// GE parameterizes the two-state model inside the window.
	GE GilbertElliottConfig
}

// GilbertElliottConfig parameterizes the two-state burst model: in the
// Good state bits fail at BERGood, in the Bad state at BERBad, and the
// channel flips between states with the given transition probabilities,
// evaluated once per transmission before the draw.  With PGoodToBad=0 it
// degenerates to independent faults at BERGood.
type GilbertElliottConfig struct {
	// BERGood and BERBad are the per-bit error rates in each state.
	BERGood, BERBad float64
	// PGoodToBad and PBadToGood are the per-transmission state transition
	// probabilities.
	PGoodToBad, PBadToGood float64
}

// Profile is a deterministic time-varying injector: a base BER overlaid
// with step/ramp phases and Gilbert–Elliott burst episodes.  It is the
// fault model the scenario engine compiles channel timelines into.
type Profile struct {
	mu     sync.Mutex
	base   float64
	phases []phaseState
	bursts []burstState
	rng    *RNG
	stats  Stats
	lastAt timebase.Macrotick
	// baseProbs memoizes the failure probabilities at the base BER.
	baseProbs sizeTable
}

// phaseState is one phase with the failure probabilities of its constant
// BER (unused for a ramp, whose BER changes with every macrotick).
type phaseState struct {
	BERPhase
	probs sizeTable
}

// constant reports whether the phase's BER is the same at every instant.
func (ph *phaseState) constant() bool {
	return ph.From == ph.To || ph.End == OpenEnd
}

type burstState struct {
	BurstWindow
	bad bool
	// goodProbs and badProbs memoize the failure probabilities at
	// BERGood and BERBad.
	goodProbs, badProbs sizeTable
}

// sizeTableSlots is the number of frame sizes a sizeTable holds; a
// workload uses a few dozen distinct wire sizes.
const sizeTableSlots = 32

// sizeTable memoizes FrameFailureProb for one constant BER in a fixed,
// direct-mapped table keyed by frame size.  Colliding sizes evict each
// other, and every hit is the exact float FrameFailureProb returns, so the
// Bernoulli draw stream is bit-identical with and without it.  Unlike
// BERInjector's dense probCache it does not grow to the largest frame
// size, which matters because a Profile keeps one table per constant-BER
// source (the base BER, each step phase, each burst state).
type sizeTable struct {
	bits  [sizeTableSlots]int
	probs [sizeTableSlots]float64
}

// prob returns FrameFailureProb(ber, bits) for positive bits; ber must be
// the table's BER.
func (t *sizeTable) prob(ber float64, bits int) (float64, error) {
	i := bits % sizeTableSlots
	if t.bits[i] == bits {
		return t.probs[i], nil
	}
	p, err := FrameFailureProb(ber, bits)
	if err != nil {
		return 0, err
	}
	t.bits[i], t.probs[i] = bits, p
	return p, nil
}

var _ TimeVarying = (*Profile)(nil)

func checkGEConfig(cfg GilbertElliottConfig) error {
	for _, ber := range []float64{cfg.BERGood, cfg.BERBad} {
		if !(ber >= 0 && ber < 1) { // the negated range tests also reject NaN
			return fmt.Errorf("%w: %g", ErrBadBER, ber)
		}
	}
	for _, p := range []float64{cfg.PGoodToBad, cfg.PBadToGood} {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("fault: transition probability %g outside [0,1]", p)
		}
	}
	return nil
}

// NewProfile returns a time-varying injector with the given base BER,
// phases and burst windows, seeded deterministically.  Phases must not
// overlap each other, and burst windows must not overlap each other; a
// burst window may overlap a phase (the burst model wins while active).
func NewProfile(base float64, phases []BERPhase, bursts []BurstWindow, seed uint64) (*Profile, error) {
	if !(base >= 0 && base < 1) {
		return nil, fmt.Errorf("%w: base %g", ErrBadBER, base)
	}
	ph := make([]phaseState, 0, len(phases))
	for _, p := range phases {
		ph = append(ph, phaseState{BERPhase: p})
	}
	sort.Slice(ph, func(i, j int) bool { return ph[i].Start < ph[j].Start })
	for i, p := range ph {
		if p.Start < 0 {
			return nil, fmt.Errorf("fault: phase start %d negative", p.Start)
		}
		if p.End <= p.Start {
			return nil, fmt.Errorf("fault: phase [%d, %d) empty", p.Start, p.End)
		}
		for _, ber := range []float64{p.From, p.To} {
			if !(ber >= 0 && ber < 1) {
				return nil, fmt.Errorf("%w: phase BER %g", ErrBadBER, ber)
			}
		}
		if i > 0 && p.Start < ph[i-1].End {
			return nil, fmt.Errorf("fault: phases [%d, %d) and [%d, %d) overlap",
				ph[i-1].Start, ph[i-1].End, p.Start, p.End)
		}
	}
	bw := make([]burstState, 0, len(bursts))
	for _, b := range bursts {
		bw = append(bw, burstState{BurstWindow: b})
	}
	sort.Slice(bw, func(i, j int) bool { return bw[i].Start < bw[j].Start })
	for i, b := range bw {
		if b.Start < 0 {
			return nil, fmt.Errorf("fault: burst start %d negative", b.Start)
		}
		if b.End <= b.Start {
			return nil, fmt.Errorf("fault: burst [%d, %d) empty", b.Start, b.End)
		}
		if err := checkGEConfig(b.GE); err != nil {
			return nil, err
		}
		if i > 0 && b.Start < bw[i-1].End {
			return nil, fmt.Errorf("fault: bursts [%d, %d) and [%d, %d) overlap",
				bw[i-1].Start, bw[i-1].End, b.Start, b.End)
		}
	}
	return &Profile{base: base, phases: ph, bursts: bw, rng: NewRNG(seed)}, nil
}

// BERAt returns the effective bit error rate at macrotick `at`, ignoring
// burst episodes.
func (p *Profile) BERAt(at timebase.Macrotick) float64 {
	ber, _ := p.berAt(at)
	return ber
}

// berAt is BERAt plus the size table of the BER's source, or nil inside a
// ramp.
func (p *Profile) berAt(at timebase.Macrotick) (float64, *sizeTable) {
	for i := range p.phases {
		ph := &p.phases[i]
		if at < ph.Start {
			break
		}
		if at >= ph.End {
			continue
		}
		if ph.constant() {
			return ph.From, &ph.probs
		}
		frac := float64(at-ph.Start) / float64(ph.End-ph.Start)
		return ph.From + (ph.To-ph.From)*frac, nil
	}
	return p.base, &p.baseProbs
}

// CorruptsAt implements TimeVarying.
func (p *Profile) CorruptsAt(bits int, at timebase.Macrotick) bool {
	if bits <= 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lastAt = at
	ber, probs := p.berAt(at)
	for i := range p.bursts {
		b := &p.bursts[i]
		if at < b.Start {
			break
		}
		if at >= b.End {
			continue
		}
		// Burst episode: state transition first, then the state's BER.
		if b.bad {
			if p.rng.Bernoulli(b.GE.PBadToGood) {
				b.bad = false
			}
		} else if p.rng.Bernoulli(b.GE.PGoodToBad) {
			b.bad = true
		}
		ber, probs = b.GE.BERGood, &b.goodProbs
		if b.bad {
			ber, probs = b.GE.BERBad, &b.badProbs
		}
		break
	}
	var prob float64
	var err error
	if probs != nil {
		prob, err = probs.prob(ber, bits)
	} else {
		prob, err = FrameFailureProb(ber, bits)
	}
	if err != nil {
		return false
	}
	p.stats.Transmissions++
	hit := p.rng.Bernoulli(prob)
	if hit {
		p.stats.Faults++
	}
	return hit
}

// Corrupts implements Injector using the most recently observed time (the
// engine always calls CorruptsAt; this is a compatibility fallback).
func (p *Profile) Corrupts(bits int) bool {
	p.mu.Lock()
	last := p.lastAt
	p.mu.Unlock()
	return p.CorruptsAt(bits, last)
}

// Stats implements Injector.
func (p *Profile) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
