package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/fault"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so sorting is exercised
	}
	return xs
}

func TestPercentileTenBeyondRule(t *testing.T) {
	cases := []struct {
		n, p     int
		v, used  float64
		ok       bool
		describe string
	}{
		{1000, 99, 990, 99, true, "p99 needs 1000 samples"},
		{999, 99, 989, 100 * 989.0 / 999, true, "p99 refused below 1000: highest supported instead"},
		{20, 50, 10, 50, true, "p50 needs 20 samples"},
		{19, 50, 9, 100 * 9.0 / 19, true, "p50 capped below 20"},
		{200, 50, 100, 50, true, "plain median rank"},
		{11, 50, 1, 100 * 1.0 / 11, true, "one supported rank"},
		{10, 50, 0, 0, false, "no percentile has ten samples beyond it"},
	}
	for _, c := range cases {
		v, used, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || v != c.v || math.Abs(used-c.used) > 1e-9 {
			t.Errorf("%s: percentile(n=%d, p%d) = (%v, %v, %v), want (%v, %v, %v)",
				c.describe, c.n, c.p, v, used, ok, c.v, c.used, c.ok)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	// Reference values from Python: statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{seq(10), 2.75, 8.25},
		{[]float64{5, 1}, 0, 6}, // Python extrapolates for tiny samples; so must we
	} {
		q1, q3, ok := quartiles(c.xs)
		if !ok || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = (%v, %v, %v), want (%v, %v)", c.xs, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should be refused")
	}
	if s := iqrShare(seq(10)); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want 1", s)
	}
}

func TestArrivalsAreSeededExponential(t *testing.T) {
	const rate = 50.0
	horizon := 100 * time.Second
	a := arrivals(fault.NewRNG(7), rate, horizon)
	b := arrivals(fault.NewRNG(7), rate, horizon)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if c := arrivals(fault.NewRNG(8), rate, horizon); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same schedule")
	}
	// 5000 expected arrivals, standard deviation about 71.
	if n := len(a); n < 4650 || n > 5350 {
		t.Fatalf("%d arrivals over %v at %v/s, want about 5000", n, horizon, rate)
	}
	gaps := make([]float64, len(a))
	prev := time.Duration(0)
	for i, at := range a {
		if at < prev || at >= horizon {
			t.Fatalf("arrival %d at %v out of order or past the horizon", i, at)
		}
		gaps[i] = ms(at - prev)
		prev = at
	}
	// Exponential gaps: mean 20 ms and median ln2·20 ms.
	if m := mean(gaps); math.Abs(m-20) > 1.5 {
		t.Errorf("mean gap %.2f ms, want about 20", m)
	}
	if m := median(gaps); math.Abs(m-20*math.Ln2) > 1.5 {
		t.Errorf("median gap %.2f ms, want about %.2f", m, 20*math.Ln2)
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	tm := openLoopTiming{due: 10 * time.Millisecond, sent: 30 * time.Millisecond, done: 50 * time.Millisecond}
	if got := tm.latency(); got != 40*time.Millisecond {
		t.Errorf("latency = %v, want 40ms (from the due time, not the late send)", got)
	}
	if got := tm.lateness(); got != 20*time.Millisecond {
		t.Errorf("lateness = %v, want 20ms", got)
	}
}
