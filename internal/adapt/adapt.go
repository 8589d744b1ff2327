// Package adapt implements the online half of graceful degradation: a
// per-channel frame-error-rate estimator fed from transmission outcomes,
// and a controller that decides when the observed error rate has diverged
// far enough from the planned bit error rate that the differentiated
// retransmission vector k_z must be recomputed (see internal/reliability),
// and when a channel looks blacked out and traffic should fail over to the
// other channel.
//
// The paper computes k_z once, offline, against a single design-time BER;
// real automotive channels drift (EMI bursts, connector degradation,
// blackouts).  The estimator inverts the paper's fault model: from an
// observed frame error rate p over frames of ~W bits, the equivalent BER
// is 1 − (1−p)^{1/W}, which is comparable against the plan's BER.
package adapt

import (
	"math"

	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/timebase"
)

// Controller parameters.  They are constants: no program tunes them, and
// the replan cooldown, which depends on the cycle length, is the one
// parameter the caller passes in.
const (
	// window is the observation count at which a channel's counters are
	// halved (exponential forgetting).
	window = 512
	// minSamples is the number of observations required on a channel
	// before its estimate is trusted.
	minSamples = 64
	// minFaults is the number of (decayed) faults required in the window
	// before an up-replan may trigger, guarding against a single unlucky
	// frame at a healthy BER.
	minFaults = 3
	// divergenceFactor triggers a replan when the observed equivalent BER
	// exceeds factor × planned BER, or falls below planned BER / factor.
	divergenceFactor = 4
	// blackoutAfter consecutive corrupted transmissions mark a channel
	// suspect (failover).
	blackoutAfter = 8
	// recoverAfter consecutive successful transmissions clear the suspect
	// mark.
	recoverAfter = 4
)

// channelState is the estimator state of one channel.
type channelState struct {
	// total and faults are decayed observation counters.
	total, faults float64
	// bitsSum decays alongside total: bitsSum/total is the mean wire size.
	bitsSum float64
	// samples counts raw observations (never decayed).
	samples int64
	// consecFail / consecOK drive blackout suspicion.
	consecFail, consecOK int
	suspect              bool
}

// Estimator tracks windowed frame-error rates per channel.  The zero
// value is ready to use.  It is not safe for concurrent use; the simulator
// invokes schedulers serially.
type Estimator struct {
	// chans holds channel A's state at index 0 and channel B's at 1.
	chans [2]channelState
}

func (e *Estimator) state(ch frame.Channel) *channelState {
	return &e.chans[ch-frame.ChannelA]
}

// Observe feeds one transmission outcome: the channel it used, its wire
// size in bits, and whether it arrived uncorrupted.
func (e *Estimator) Observe(ch frame.Channel, bits int, ok bool) {
	st := e.state(ch)
	st.samples++
	st.total++
	st.bitsSum += float64(bits)
	if !ok {
		st.faults++
		st.consecFail++
		st.consecOK = 0
		if st.consecFail >= blackoutAfter {
			st.suspect = true
		}
	} else {
		st.consecOK++
		st.consecFail = 0
		if st.suspect && st.consecOK >= recoverAfter {
			st.suspect = false
			// The window is dominated by the outage, which says nothing
			// about the channel's post-recovery BER: restart the estimate
			// so the first replan after a blackout is not poisoned by it.
			st.total, st.faults, st.bitsSum = 0, 0, 0
		}
	}
	if st.total >= window {
		st.total /= 2
		st.faults /= 2
		st.bitsSum /= 2
	}
}

// FER returns the windowed frame-error-rate estimate of the channel, or 0
// before any observation.
func (e *Estimator) FER(ch frame.Channel) float64 {
	st := e.state(ch)
	if st.total <= 0 {
		return 0
	}
	return st.faults / st.total
}

// Samples returns the raw observation count of the channel.
func (e *Estimator) Samples(ch frame.Channel) int64 { return e.state(ch).samples }

// Faults returns the decayed in-window fault count of the channel.
func (e *Estimator) Faults(ch frame.Channel) float64 { return e.state(ch).faults }

// Suspect reports whether the channel currently looks blacked out.
func (e *Estimator) Suspect(ch frame.Channel) bool { return e.state(ch).suspect }

// EquivalentBER inverts the paper's fault model p = 1 − (1−BER)^W at the
// channel's mean observed frame size: BER = 1 − (1−p)^{1/W}.  Returns 0
// before any observation or at FER 0, and 1 at FER ≥ 1.
func (e *Estimator) EquivalentBER(ch frame.Channel) float64 {
	st := e.state(ch)
	if st.total <= 0 || st.bitsSum <= 0 {
		return 0
	}
	p := st.faults / st.total
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	meanBits := st.bitsSum / st.total
	if meanBits < 1 {
		meanBits = 1
	}
	// 1 - (1-p)^(1/W) via expm1/log1p for precision at small p.
	return -math.Expm1(math.Log1p(-p) / meanBits)
}

// Controller decides replans from its estimator's view of the primary
// channel.  It never plans below the design BER: the offline plan is the
// floor the system returns to when the channel heals.
type Controller struct {
	Estimator
	designBER float64
	planBER   float64
	cooldown  timebase.Macrotick
	lastAt    timebase.Macrotick
	replanned bool
}

// NewController returns a controller around a fresh estimator.  designBER
// is the BER the offline plan was computed against; cooldown is the
// minimum macrotick gap between replans.
func NewController(designBER float64, cooldown timebase.Macrotick) *Controller {
	return &Controller{
		designBER: designBER,
		planBER:   designBER,
		cooldown:  cooldown,
	}
}

// Degraded reports whether the channel's observed equivalent BER has
// diverged above the design BER by the divergence factor (with the same
// min-samples and min-faults guards as replanning).  Schedulers use this to
// route retransmission copies towards the healthier channel: a proactive
// copy is burned once transmitted, so placing it on a channel known to be
// degraded squanders the reliability the plan paid for.
func (c *Controller) Degraded(ch frame.Channel) bool {
	if c.Samples(ch) < minSamples || c.Faults(ch) < minFaults {
		return false
	}
	return c.EquivalentBER(ch) > c.designBER*divergenceFactor
}

// ReplanBER returns the BER to replan at and true when the observed error
// rate on the primary channel has diverged from the plan BER by more than
// the divergence factor (respecting min-samples, min-faults for upward
// moves, and the replan cooldown).
func (c *Controller) ReplanBER(primary frame.Channel, now timebase.Macrotick) (float64, bool) {
	if c.replanned && now-c.lastAt < c.cooldown {
		return 0, false
	}
	if c.Samples(primary) < minSamples {
		return 0, false
	}
	obs := c.EquivalentBER(primary)
	if obs >= 1 {
		// A fully dead channel is the failover path's job, not the
		// planner's: no finite k_z helps at FER 1.
		return 0, false
	}
	if obs > c.planBER*divergenceFactor {
		if c.Faults(primary) < minFaults {
			return 0, false
		}
		return obs, true
	}
	if c.planBER > c.designBER && obs < c.planBER/divergenceFactor {
		next := obs
		if next < c.designBER {
			next = c.designBER
		}
		if next != c.planBER {
			return next, true
		}
	}
	return 0, false
}

// NotifyReplan records that the caller installed a plan at newBER.
func (c *Controller) NotifyReplan(newBER float64, now timebase.Macrotick) {
	c.planBER = newBER
	c.lastAt = now
	c.replanned = true
}
