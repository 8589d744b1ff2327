package fault

import (
	"math"
	"testing"

	"github.com/flexray-go/coefficient/internal/timebase"
)

// Seed-determinism regression tests: every injector kind must reproduce its
// exact fault stream from the seed alone.  The scenario engine and the
// byte-identical-trace guarantee both rest on this.

func TestBernoulliDeterministic(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 5000; i++ {
		p := float64(i%100) / 100
		if a.Bernoulli(p) != b.Bernoulli(p) {
			t.Fatalf("same-seed Bernoulli streams diverged at draw %d", i)
		}
	}
}

func TestGilbertElliottDeterministic(t *testing.T) {
	cfg := GilbertElliottConfig{BERGood: 1e-6, BERBad: 1e-2, PGoodToBad: 0.05, PBadToGood: 0.2}
	a, b := wholeRunBurst(t, cfg, 77), wholeRunBurst(t, cfg, 77)
	for i := 0; i < 20000; i++ {
		at := timebase.Macrotick(i)
		if a.CorruptsAt(700, at) != b.CorruptsAt(700, at) {
			t.Fatalf("same-seed Gilbert–Elliott streams diverged at draw %d", i)
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("same-seed stats differ: %+v vs %+v", a.Stats(), b.Stats())
	}
}

func profileFixture(t *testing.T, seed uint64) *Profile {
	t.Helper()
	p, err := NewProfile(1e-7,
		[]BERPhase{
			{Start: 10_000, End: 20_000, From: 1e-7, To: 1e-4},  // ramp
			{Start: 40_000, End: OpenEnd, From: 1e-4, To: 1e-4}, // step
		},
		[]BurstWindow{
			{Start: 25_000, End: 30_000, GE: GilbertElliottConfig{
				BERGood: 1e-7, BERBad: 1e-2, PGoodToBad: 0.2, PBadToGood: 0.4}},
		},
		seed)
	if err != nil {
		t.Fatalf("NewProfile: %v", err)
	}
	return p
}

func TestProfileDeterministic(t *testing.T) {
	a, b := profileFixture(t, 31), profileFixture(t, 31)
	for at := timebase.Macrotick(0); at < 60_000; at += 13 {
		if a.CorruptsAt(900, at) != b.CorruptsAt(900, at) {
			t.Fatalf("same-seed time-varying streams diverged at t=%d", at)
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("same-seed stats differ: %+v vs %+v", a.Stats(), b.Stats())
	}
	// A different seed must not replay the stream.
	c := profileFixture(t, 32)
	same := 0
	d := profileFixture(t, 31)
	const draws = 4000
	for i := 0; i < draws; i++ {
		at := timebase.Macrotick(41_000 + i) // inside the 1e-4 step
		if c.CorruptsAt(5000, at) == d.CorruptsAt(5000, at) {
			same++
		}
	}
	if same == draws {
		t.Error("different-seed profiles produced identical fault streams")
	}
}

func TestProfileBERAt(t *testing.T) {
	p := profileFixture(t, 1)
	tests := []struct {
		at   timebase.Macrotick
		want float64
	}{
		{0, 1e-7},                        // base
		{9_999, 1e-7},                    // base, just before the ramp
		{10_000, 1e-7},                   // ramp start
		{15_000, 1e-7 + (1e-4-1e-7)*0.5}, // ramp midpoint
		{20_000, 1e-7},                   // ramp end is exclusive: back to base
		{39_999, 1e-7},                   // between windows
		{40_000, 1e-4},                   // step
		{1 << 40, 1e-4},                  // open-ended step holds forever
	}
	for _, tt := range tests {
		got := p.BERAt(tt.at)
		if math.Abs(got-tt.want) > 1e-12*tt.want {
			t.Errorf("BERAt(%d) = %g, want %g", tt.at, got, tt.want)
		}
	}
}

func TestProfileStepRaisesObservedRate(t *testing.T) {
	p := profileFixture(t, 5)
	count := func(from, to timebase.Macrotick) (faults, total int) {
		for at := from; at < to; at++ {
			total++
			if p.CorruptsAt(2000, at) {
				faults++
			}
		}
		return
	}
	baseFaults, baseTotal := count(0, 9_000)
	stepFaults, stepTotal := count(41_000, 50_000)
	baseRate := float64(baseFaults) / float64(baseTotal)
	stepRate := float64(stepFaults) / float64(stepTotal)
	// p(base) ≈ 2e-4, p(step) ≈ 0.18: the step must dominate clearly.
	if stepRate <= baseRate+0.05 {
		t.Errorf("step rate %g not clearly above base rate %g", stepRate, baseRate)
	}
}

func TestProfileValidation(t *testing.T) {
	if _, err := NewProfile(1.5, nil, nil, 1); err == nil {
		t.Error("base BER 1.5 accepted")
	}
	if _, err := NewProfile(0, []BERPhase{{Start: -1, End: 5, From: 0, To: 0}}, nil, 1); err == nil {
		t.Error("negative phase start accepted")
	}
	if _, err := NewProfile(0, []BERPhase{{Start: 5, End: 5, From: 0, To: 0}}, nil, 1); err == nil {
		t.Error("empty phase accepted")
	}
	if _, err := NewProfile(0, []BERPhase{
		{Start: 0, End: 10, From: 0, To: 0},
		{Start: 5, End: 15, From: 0, To: 0},
	}, nil, 1); err == nil {
		t.Error("overlapping phases accepted")
	}
	if _, err := NewProfile(0, nil, []BurstWindow{
		{Start: 0, End: 10},
		{Start: 5, End: 15},
	}, 1); err == nil {
		t.Error("overlapping bursts accepted")
	}
	if _, err := NewProfile(0, nil, []BurstWindow{
		{Start: 0, End: 10, GE: GilbertElliottConfig{PGoodToBad: 3}},
	}, 1); err == nil {
		t.Error("burst with probability 3 accepted")
	}
}
