package fault

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/flexray-go/coefficient/internal/timebase"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different-seed RNGs agree on %d of 1000 draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v outside [0,1)", v)
		}
	}
}

func TestRNGFloat64Uniformity(t *testing.T) {
	r := NewRNG(11)
	const n = 100000
	var sum float64
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		buckets[int(v*10)]++
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
	for i, c := range buckets {
		if c < n/10-n/100 || c > n/10+n/100 {
			t.Errorf("bucket %d has %d draws, want ~%d", i, c, n/10)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGBernoulliEdges(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestRNGFork(t *testing.T) {
	parent := NewRNG(42)
	child := parent.Fork()
	// The fork must not replay the parent's stream.
	p2 := NewRNG(42)
	p2.Uint64() // consume the draw used by Fork
	for i := 0; i < 100; i++ {
		if child.Uint64() == p2.Uint64() {
			t.Fatal("fork correlates with parent stream")
		}
	}
}

func TestFrameFailureProb(t *testing.T) {
	// Known values: p = 1-(1-BER)^W.
	tests := []struct {
		ber  float64
		bits int
		want float64
	}{
		{0, 1000, 0},
		{1e-7, 1000, 1 - math.Pow(1-1e-7, 1000)},
		{1e-9, 1292, 1 - math.Pow(1-1e-9, 1292)},
		{0.5, 2, 0.75},
	}
	for _, tt := range tests {
		got, err := FrameFailureProb(tt.ber, tt.bits)
		if err != nil {
			t.Fatalf("FrameFailureProb(%g, %d) error: %v", tt.ber, tt.bits, err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("FrameFailureProb(%g, %d) = %g, want %g", tt.ber, tt.bits, got, tt.want)
		}
	}
}

func TestFrameFailureProbErrors(t *testing.T) {
	if _, err := FrameFailureProb(-0.1, 10); !errors.Is(err, ErrBadBER) {
		t.Errorf("negative BER: %v, want ErrBadBER", err)
	}
	if _, err := FrameFailureProb(1, 10); !errors.Is(err, ErrBadBER) {
		t.Errorf("BER=1: %v, want ErrBadBER", err)
	}
	if _, err := FrameFailureProb(math.NaN(), 10); !errors.Is(err, ErrBadBER) {
		t.Errorf("BER=NaN: %v, want ErrBadBER", err)
	}
	if _, err := FrameFailureProb(0.1, 0); !errors.Is(err, ErrBadBits) {
		t.Errorf("zero bits: %v, want ErrBadBits", err)
	}
}

// Property: failure probability is monotone in both BER and frame size, and
// always within [0, 1).
func TestFrameFailureProbMonotoneProperty(t *testing.T) {
	f := func(berRaw uint16, bits1, bits2 uint16) bool {
		ber := float64(berRaw) / (1 << 17) // [0, 0.5)
		b1, b2 := int(bits1)+1, int(bits2)+1
		if b1 > b2 {
			b1, b2 = b2, b1
		}
		p1, err1 := FrameFailureProb(ber, b1)
		p2, err2 := FrameFailureProb(ber, b2)
		if err1 != nil || err2 != nil {
			return false
		}
		return p1 >= 0 && p2 <= 1 && p1 <= p2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBERInjectorRate(t *testing.T) {
	// At BER 1e-4 and 1000-bit frames, p ≈ 0.0952.  Check the empirical
	// rate over many draws.
	inj, err := NewBERInjector(1e-4, 99)
	if err != nil {
		t.Fatalf("NewBERInjector: %v", err)
	}
	const n = 200000
	for i := 0; i < n; i++ {
		inj.Corrupts(1000)
	}
	s := inj.Stats()
	if s.Transmissions != n {
		t.Fatalf("Transmissions = %d, want %d", s.Transmissions, n)
	}
	want, _ := FrameFailureProb(1e-4, 1000)
	got := s.Rate()
	if math.Abs(got-want) > 0.005 {
		t.Errorf("observed rate %g, want ~%g", got, want)
	}
}

func TestBERInjectorZeroBER(t *testing.T) {
	inj, err := NewBERInjector(0, 1)
	if err != nil {
		t.Fatalf("NewBERInjector: %v", err)
	}
	for i := 0; i < 1000; i++ {
		if inj.Corrupts(2032) {
			t.Fatal("zero-BER injector corrupted a frame")
		}
	}
}

func TestBERInjectorRejectsBadBER(t *testing.T) {
	if _, err := NewBERInjector(1.5, 1); !errors.Is(err, ErrBadBER) {
		t.Errorf("NewBERInjector(1.5) = %v, want ErrBadBER", err)
	}
	if _, err := NewBERInjector(math.NaN(), 1); !errors.Is(err, ErrBadBER) {
		t.Errorf("NewBERInjector(NaN) = %v, want ErrBadBER", err)
	}
}

func TestBERInjectorDeterministic(t *testing.T) {
	a, _ := NewBERInjector(1e-3, 7)
	b, _ := NewBERInjector(1e-3, 7)
	for i := 0; i < 10000; i++ {
		if a.Corrupts(500) != b.Corrupts(500) {
			t.Fatalf("same-seed injectors diverged at draw %d", i)
		}
	}
}

func TestBERInjectorNonPositiveBits(t *testing.T) {
	inj, _ := NewBERInjector(0.9, 1)
	if inj.Corrupts(0) || inj.Corrupts(-3) {
		t.Error("non-positive frame sizes must never corrupt")
	}
	if s := inj.Stats(); s.Transmissions != 0 {
		t.Errorf("non-positive sizes counted as transmissions: %+v", s)
	}
}

// wholeRunBurst returns a Profile whose single burst window spans the
// whole run, so every transmission steps the Gilbert–Elliott chain.
func wholeRunBurst(t *testing.T, cfg GilbertElliottConfig, seed uint64) *Profile {
	t.Helper()
	p, err := NewProfile(0, nil, []BurstWindow{{Start: 0, End: OpenEnd, GE: cfg}}, seed)
	if err != nil {
		t.Fatalf("NewProfile: %v", err)
	}
	return p
}

func TestGilbertElliottDegeneratesToBER(t *testing.T) {
	ge := wholeRunBurst(t, GilbertElliottConfig{
		BERGood: 1e-4, BERBad: 0.5, PGoodToBad: 0, PBadToGood: 1,
	}, 99)
	const n = 100000
	for i := 0; i < n; i++ {
		ge.CorruptsAt(1000, timebase.Macrotick(i))
	}
	want, _ := FrameFailureProb(1e-4, 1000)
	if got := ge.Stats().Rate(); math.Abs(got-want) > 0.01 {
		t.Errorf("degenerate GE rate = %g, want ~%g", got, want)
	}
	if ge.bursts[0].bad {
		t.Error("GE with PGoodToBad=0 entered bad state")
	}
}

func TestGilbertElliottBurstsRaiseRate(t *testing.T) {
	cfg := GilbertElliottConfig{BERGood: 1e-6, BERBad: 1e-2, PGoodToBad: 0.05, PBadToGood: 0.2}
	ge := wholeRunBurst(t, cfg, 5)
	base, _ := NewBERInjector(1e-6, 5)
	const n = 100000
	for i := 0; i < n; i++ {
		ge.CorruptsAt(1000, timebase.Macrotick(i))
		base.Corrupts(1000)
	}
	if ge.Stats().Rate() <= base.Stats().Rate() {
		t.Errorf("burst model rate %g not above baseline %g",
			ge.Stats().Rate(), base.Stats().Rate())
	}
}

func TestGilbertElliottValidation(t *testing.T) {
	burst := func(cfg GilbertElliottConfig) error {
		_, err := NewProfile(0, nil, []BurstWindow{{Start: 0, End: OpenEnd, GE: cfg}}, 1)
		return err
	}
	if err := burst(GilbertElliottConfig{BERGood: -1}); !errors.Is(err, ErrBadBER) {
		t.Errorf("negative BERGood: err = %v, want ErrBadBER", err)
	}
	if err := burst(GilbertElliottConfig{PGoodToBad: 2}); err == nil {
		t.Error("transition probability 2 accepted")
	}
	if err := burst(GilbertElliottConfig{BERBad: math.NaN()}); !errors.Is(err, ErrBadBER) {
		t.Errorf("NaN BERBad: err = %v, want ErrBadBER", err)
	}
	if err := burst(GilbertElliottConfig{PBadToGood: math.NaN()}); err == nil {
		t.Error("NaN transition probability accepted")
	}
}

func TestNoneInjector(t *testing.T) {
	var n None
	for i := 0; i < 50; i++ {
		if n.Corrupts(10000) {
			t.Fatal("None corrupted a frame")
		}
	}
	if s := n.Stats(); s.Transmissions != 50 || s.Faults != 0 {
		t.Errorf("Stats() = %+v, want 50/0", s)
	}
}

func TestStatsRateEmpty(t *testing.T) {
	var s Stats
	if s.Rate() != 0 {
		t.Errorf("empty Stats.Rate() = %g, want 0", s.Rate())
	}
}
