package adapt

import (
	"math"
	"testing"

	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/frame"
)

// feed pushes a deterministic outcome pattern: one fault every `every`
// observations (every == 0 means all successes).
func feed(e *Estimator, ch frame.Channel, bits, n, every int) {
	for i := 1; i <= n; i++ {
		ok := every == 0 || i%every != 0
		e.Observe(ch, bits, ok)
	}
}

func TestEstimatorFERConverges(t *testing.T) {
	e := &Estimator{}
	feed(e, frame.ChannelA, 500, 1000, 10) // FER 0.1 by construction
	got := e.FER(frame.ChannelA)
	if math.Abs(got-0.1) > 0.02 {
		t.Errorf("FER = %g, want ≈0.1", got)
	}
	if e.FER(frame.ChannelB) != 0 {
		t.Errorf("unobserved channel FER = %g, want 0", e.FER(frame.ChannelB))
	}
	if e.Samples(frame.ChannelA) != 1000 {
		t.Errorf("Samples = %d, want 1000", e.Samples(frame.ChannelA))
	}
}

func TestEstimatorWindowForgets(t *testing.T) {
	e := &Estimator{}
	feed(e, frame.ChannelA, 500, 256, 2)  // FER 0.5 era
	feed(e, frame.ChannelA, 500, 1024, 0) // then a long healthy era
	if got := e.FER(frame.ChannelA); got > 0.05 {
		t.Errorf("FER = %g after healthy era, want near 0 (window must forget)", got)
	}
}

// EquivalentBER must invert the fault model: feeding outcomes drawn from
// p = FrameFailureProb(ber, W) recovers ber within sampling error.  The
// outcome pattern is periodic, so halving the counters keeps its ratio.
func TestEquivalentBERInvertsFaultModel(t *testing.T) {
	const ber, bits = 2e-4, 1000
	p, err := fault.FrameFailureProb(ber, bits)
	if err != nil {
		t.Fatal(err)
	}
	e := &Estimator{}
	every := int(math.Round(1 / p))
	feed(e, frame.ChannelA, bits, 100*every, every)
	got := e.EquivalentBER(frame.ChannelA)
	if got < ber/2 || got > ber*2 {
		t.Errorf("EquivalentBER = %g, want ≈%g", got, ber)
	}
}

func TestSuspectDetectionAndRecovery(t *testing.T) {
	e := &Estimator{}
	feed(e, frame.ChannelA, 500, blackoutAfter-1, 1) // not yet
	if e.Suspect(frame.ChannelA) {
		t.Fatal("suspect before blackoutAfter consecutive faults")
	}
	e.Observe(frame.ChannelA, 500, false) // the blackoutAfter-th
	if !e.Suspect(frame.ChannelA) {
		t.Fatal("not suspect after blackoutAfter consecutive faults")
	}
	// Successes clear it only after recoverAfter in a row.
	feed(e, frame.ChannelA, 500, recoverAfter-1, 0)
	if !e.Suspect(frame.ChannelA) {
		t.Fatal("suspect cleared too early")
	}
	e.Observe(frame.ChannelA, 500, true)
	if e.Suspect(frame.ChannelA) {
		t.Fatal("suspect not cleared after recoverAfter successes")
	}
	// Recovery resets the window: the outage's faults must not poison the
	// post-recovery estimate.
	if got := e.FER(frame.ChannelA); got != 0 {
		t.Errorf("FER = %g right after recovery, want 0 (window reset)", got)
	}
	if e.EquivalentBER(frame.ChannelA) != 0 {
		t.Errorf("EquivalentBER nonzero right after recovery")
	}
}

func TestSuspectInterruptedRecovery(t *testing.T) {
	e := &Estimator{}
	feed(e, frame.ChannelA, 500, blackoutAfter, 1)
	feed(e, frame.ChannelA, 500, recoverAfter-1, 0)
	e.Observe(frame.ChannelA, 500, false) // fault interrupts the OK streak
	feed(e, frame.ChannelA, 500, recoverAfter-1, 0)
	if !e.Suspect(frame.ChannelA) {
		t.Error("interrupted OK streak still cleared the suspect mark")
	}
}

func TestControllerReplanTriggersOnDivergence(t *testing.T) {
	const design = 1e-7
	c := NewController(design, 1000)
	// Healthy traffic: no replan.
	for i := 0; i < 200; i++ {
		c.Observe(frame.ChannelA, 500, true)
	}
	if _, ok := c.ReplanBER(frame.ChannelA, 0); ok {
		t.Fatal("replan triggered on a healthy channel")
	}
	// Degraded era: FER ~0.2 on 500-bit frames, equivalent BER ~4.5e-4.
	for i := 1; i <= 300; i++ {
		c.Observe(frame.ChannelA, 500, i%5 != 0)
	}
	ber, ok := c.ReplanBER(frame.ChannelA, 0)
	if !ok {
		t.Fatal("no replan despite massive divergence")
	}
	if ber <= design {
		t.Errorf("replan BER %g not above the design BER %g", ber, design)
	}
	c.NotifyReplan(ber, 0)
	// Cooldown suppresses an immediate follow-up.
	if _, ok := c.ReplanBER(frame.ChannelA, 500); ok {
		t.Error("replan inside the cooldown window")
	}
	// After the cooldown the same estimate matches the installed plan BER.
	if got, ok := c.ReplanBER(frame.ChannelA, 1000); ok {
		t.Errorf("replan at BER %g after installing a plan at %g", got, ber)
	}
}

func TestControllerReplansDownToDesignFloor(t *testing.T) {
	const design = 1e-7
	c := NewController(design, 10)
	c.NotifyReplan(1e-4, 0) // pretend a degraded-era plan is installed
	// A long healthy era decays the estimate to ~0.
	for i := 0; i < 2000; i++ {
		c.Observe(frame.ChannelA, 500, true)
	}
	ber, ok := c.ReplanBER(frame.ChannelA, 100)
	if !ok {
		t.Fatal("no down-replan after the channel healed")
	}
	if ber != design {
		t.Errorf("down-replan BER = %g, want the design floor %g", ber, design)
	}
}

func TestControllerDegraded(t *testing.T) {
	const design = 1e-7
	c := NewController(design, 1000)
	// Too few samples: never degraded, whatever the few outcomes say.
	for i := 0; i < 10; i++ {
		c.Observe(frame.ChannelA, 500, false)
	}
	if c.Degraded(frame.ChannelA) {
		t.Fatal("degraded below minSamples")
	}
	for i := 1; i <= 300; i++ {
		c.Observe(frame.ChannelA, 500, i%5 != 0)
	}
	if !c.Degraded(frame.ChannelA) {
		t.Error("channel at FER 0.2 not degraded vs design BER 1e-7")
	}
	// The healthy channel stays clean.
	for i := 0; i < 300; i++ {
		c.Observe(frame.ChannelB, 500, true)
	}
	if c.Degraded(frame.ChannelB) {
		t.Error("healthy channel reported degraded")
	}
}

func TestControllerSuspectDelegates(t *testing.T) {
	c := NewController(1e-7, 1000)
	for i := 0; i < blackoutAfter; i++ {
		c.Observe(frame.ChannelB, 500, false)
	}
	if !c.Suspect(frame.ChannelB) || c.Suspect(frame.ChannelA) {
		t.Error("controller suspect view inconsistent with estimator")
	}
}

func TestReplanBERIgnoresDeadChannel(t *testing.T) {
	c := NewController(1e-7, 1000)
	for i := 0; i < 100; i++ {
		c.Observe(frame.ChannelA, 500, false) // FER 1: equivalent BER 1
	}
	if _, ok := c.ReplanBER(frame.ChannelA, 0); ok {
		t.Error("replan triggered at FER 1; that is failover's job")
	}
}
