package clocksync

import (
	"testing"

	"github.com/flexray-go/coefficient/internal/fault"
)

func TestLocalClockDriftAccumulation(t *testing.T) {
	// 100 ppm over a 5000-macrotick (200k µT) cycle = 20 µT/cycle.
	c := NewLocalClock(100, 5000*MicroPerMacro, 0, nil)
	if got := c.DriftPerCycle(); got != 20 {
		t.Fatalf("DriftPerCycle = %d, want 20", got)
	}
	for i := 0; i < 10; i++ {
		c.AdvanceCycle()
	}
	if got := c.Offset(); got != 200 {
		t.Fatalf("offset after 10 cycles = %d, want 200", got)
	}
	if got := c.OffsetMacroticks(); got != 5 {
		t.Fatalf("OffsetMacroticks = %d, want 5", got)
	}
}

func TestLocalClockNegativeDrift(t *testing.T) {
	c := NewLocalClock(-100, 5000*MicroPerMacro, 0, nil)
	c.AdvanceCycle()
	if got := c.Offset(); got != -20 {
		t.Fatalf("offset = %d, want -20", got)
	}
	if got := c.OffsetMacroticks(); got != 0 {
		t.Fatalf("OffsetMacroticks should truncate toward zero, got %d", got)
	}
}

func TestLocalClockRateCorrectionCancelsDrift(t *testing.T) {
	c := NewLocalClock(100, 5000*MicroPerMacro, 0, nil)
	c.AdjustRate(c.DriftPerCycle()) // perfect rate correction
	for i := 0; i < 50; i++ {
		c.AdvanceCycle()
	}
	if got := c.Offset(); got != 0 {
		t.Fatalf("perfectly rate-corrected clock drifted to %d µT", got)
	}
}

func TestLocalClockOffsetCorrection(t *testing.T) {
	c := NewLocalClock(0, 5000*MicroPerMacro, 0, nil)
	c.ApplyOffsetCorrection(-37)
	if got := c.Offset(); got != -37 {
		t.Fatalf("offset = %d, want -37", got)
	}
}

func TestLocalClockResyncKeepsDrift(t *testing.T) {
	c := NewLocalClock(250, 5000*MicroPerMacro, 0, nil)
	c.AdjustRate(5)
	c.AdvanceCycle()
	c.Resync()
	if got := c.Offset(); got != 0 {
		t.Fatalf("offset after Resync = %d, want 0", got)
	}
	// Drift survives the restart; rate correction does not.
	c.AdvanceCycle()
	if got := c.Offset(); got != c.DriftPerCycle() {
		t.Fatalf("post-resync cycle advanced %d, want raw drift %d", got, c.DriftPerCycle())
	}
}

func TestLocalClockMeasurementJitterBoundedAndDeterministic(t *testing.T) {
	const jitter = 4
	a1 := NewLocalClock(0, 5000*MicroPerMacro, jitter, fault.NewRNG(99))
	a2 := NewLocalClock(0, 5000*MicroPerMacro, jitter, fault.NewRNG(99))
	b := NewLocalClock(0, 5000*MicroPerMacro, 0, nil)
	b.ApplyOffsetCorrection(100)
	for i := 0; i < 200; i++ {
		m1 := a1.MeasureAgainst(b)
		m2 := a2.MeasureAgainst(b)
		if m1 != m2 {
			t.Fatalf("iteration %d: same-seed measurements differ: %d vs %d", i, m1, m2)
		}
		if m1 < 100-jitter || m1 > 100+jitter {
			t.Fatalf("iteration %d: measurement %d outside 100±%d", i, m1, jitter)
		}
	}
}

func TestPOCStateString(t *testing.T) {
	cases := []struct {
		s    POCState
		want string
	}{
		{POCNormalActive, "normal-active"},
		{POCNormalPassive, "normal-passive"},
		{POCHalt, "halt"},
		{POCState(0), "unknown"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Fatalf("POCState(%d).String() = %q, want %q", c.s, got, c.want)
		}
	}
}
