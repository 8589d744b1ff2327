package main

import (
	"math"
	"sort"
	"time"

	"github.com/flexray-go/coefficient/internal/fault"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a tail read off fewer samples is one outlier's value, not
// a property of the system.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (p in 1..100) of
// samples, capped at the highest percentile that still has minBeyond
// samples beyond it.  used is the percentile actually reported (p itself
// when the sample count supports it), so p99 is refused below 1000
// samples and the highest supported percentile reported instead.  ok is
// false when there are too few samples for any percentile.
func percentile(samples []float64, p int) (v, used float64, ok bool) {
	n := len(samples)
	if n <= minBeyond || p < 1 || p > 100 {
		return 0, 0, false
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := (p*n + 99) / 100 // ceil(p·n/100) in integer arithmetic
	if max := n - minBeyond; rank > max {
		rank = max
	}
	return sorted[rank-1], 100 * float64(rank) / float64(n), true
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spreads are judged by.  It needs two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), true
}

// iqrShare is the interquartile distance of xs as a share of its median.
func iqrShare(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	m := median(xs)
	if !ok || m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// mean returns the arithmetic mean of xs, or 0 for no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// arrivals returns the due times of a Poisson arrival process at rate
// per second over [0, horizon): seeded exponential inter-arrival gaps,
// so the same RNG seed always yields the same schedule.
func arrivals(rng *fault.RNG, rate float64, horizon time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate // Float64 < 1, so the log is finite
		at := time.Duration(t * float64(time.Second))
		if at >= horizon {
			return due
		}
		due = append(due, at)
	}
}

// openLoopTiming is one open-loop request's timeline, as offsets from
// the start of its phase.
type openLoopTiming struct {
	// due is when the schedule says the request is sent; sent is when
	// the generator actually sent it; done is when its result was
	// observed.
	due, sent, done time.Duration
}

// latency is measured from the due time, not the send time, so a
// generator held up by a stalled system charges that stall to every
// request it delayed instead of hiding it.
func (t openLoopTiming) latency() time.Duration { return t.done - t.due }

// lateness is how far behind its schedule the generator sent the
// request.
func (t openLoopTiming) lateness() time.Duration { return t.sent - t.due }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
