package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/flexray-go/coefficient/internal/timebase"
)

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.N() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 ||
		s.Percentile(50) != 0 || s.StdDev() != 0 {
		t.Error("empty series should report zeros")
	}
}

func TestSeriesStats(t *testing.T) {
	var s Series
	for _, v := range []float64{4, 1, 3, 2, 5} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Errorf("N() = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Errorf("Mean() = %g, want 3", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %g/%g", s.Min(), s.Max())
	}
	if got := s.Percentile(50); got != 3 {
		t.Errorf("P50 = %g, want 3", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Errorf("P100 = %g, want 5", got)
	}
	if got := s.Percentile(200); got != 5 {
		t.Errorf("P200 = %g, want 5 (clamped)", got)
	}
	// Population stddev of 1..5 = sqrt(2).
	if got := s.StdDev(); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("StdDev() = %g, want sqrt(2)", got)
	}
}

func TestSeriesAddAfterQuery(t *testing.T) {
	var s Series
	s.Add(5)
	if s.Max() != 5 {
		t.Fatal("Max before second add")
	}
	s.Add(10) // the running maximum follows late adds
	if s.Max() != 10 {
		t.Errorf("Max() = %g after late add, want 10", s.Max())
	}
}

// Property: Min ≤ Percentile(p) ≤ Max, and percentiles are monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(vals []float64, p1, p2 uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var s Series
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		a := float64(p1%100) + 1
		b := float64(p2%100) + 1
		if a > b {
			a, b = b, a
		}
		pa, pb := s.Percentile(a), s.Percentile(b)
		return s.Min() <= pa && pa <= pb && pb <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPercentileMatchesSortedNearestRank holds the selection-based
// Percentile and the running Max to the sorted form they replaced: over
// random series, heavy with duplicates like latencies in macroticks, each
// equals the nearest-rank element of the sorted samples — including n = 1
// and p = 100 — and a query that reorders the samples changes no later
// answer.
func TestPercentileMatchesSortedNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(20261020))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(300)
		if trial%10 == 0 {
			n = 1
		}
		distinct := 1 + rng.Intn(n+3)
		var s Series
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(distinct)) - float64(distinct/3)
			if trial%7 == 0 {
				vals[i] = float64(i) // already sorted
			}
			s.Add(vals[i])
		}
		sorted := slices.Clone(vals)
		slices.Sort(sorted)
		if got, want := s.Max(), sorted[n-1]; got != want {
			t.Fatalf("trial %d: Max = %g, sorted max %g", trial, got, want)
		}
		for _, p := range []float64{100, 99, 50, 1, 0.5, 100 * rng.Float64(), 25, 99.9} {
			if p <= 0 {
				continue
			}
			rank := max(int(math.Ceil(p/100*float64(n))), 1)
			if got, want := s.Percentile(p), sorted[rank-1]; got != want {
				t.Fatalf("trial %d (n=%d): P%g = %g, sorted nearest rank %d = %g", trial, n, p, got, rank, want)
			}
		}
		if got, want := s.Min(), sorted[0]; got != want {
			t.Fatalf("trial %d: Min = %g, sorted min %g", trial, got, want)
		}
	}
}

func testCollector() *Collector {
	cfg := timebase.LatencyConfig(50)
	return NewCollector(cfg)
}

func TestCollectorReport(t *testing.T) {
	c := testCollector()
	// Two static deliveries (one late), one dynamic, one dynamic drop.
	c.Delivered(Static, 0, 500, 1000)
	c.Delivered(Static, 100, 1500, 1200) // late
	c.Delivered(Dynamic, 0, 2000, 50000)
	c.Dropped(Dynamic)
	c.BusBusy(300)
	c.ChannelTime(2000)
	c.Retransmission()
	c.Fault()

	r := c.Report()
	if r.Makespan != 2*time.Millisecond {
		t.Errorf("Makespan = %v, want 2ms", r.Makespan)
	}
	if math.Abs(r.BandwidthUtilization-0.15) > 1e-12 {
		t.Errorf("BandwidthUtilization = %g, want 0.15", r.BandwidthUtilization)
	}
	// Static mean latency: (500 + 1400)/2 = 950µs.
	if r.MeanLatency[Static] != 950*time.Microsecond {
		t.Errorf("MeanLatency[Static] = %v, want 950µs", r.MeanLatency[Static])
	}
	if r.DeadlineMissRatio[Static] != 0.5 {
		t.Errorf("MissRatio[Static] = %g, want 0.5", r.DeadlineMissRatio[Static])
	}
	if r.DeadlineMissRatio[Dynamic] != 0.5 { // 1 drop of 2 total
		t.Errorf("MissRatio[Dynamic] = %g, want 0.5", r.DeadlineMissRatio[Dynamic])
	}
	if r.Delivered[Static] != 2 || r.Dropped[Dynamic] != 1 {
		t.Errorf("Delivered/Dropped = %v/%v", r.Delivered, r.Dropped)
	}
	if r.Retransmissions != 1 || r.Faults != 1 {
		t.Errorf("Retx/Faults = %d/%d", r.Retransmissions, r.Faults)
	}
	if got := r.OverallMissRatio(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("OverallMissRatio() = %g, want 0.5", got)
	}
}

func TestCollectorEmptyReport(t *testing.T) {
	r := testCollector().Report()
	if r.BandwidthUtilization != 0 || r.Makespan != 0 {
		t.Error("empty collector should report zeros")
	}
	if r.OverallMissRatio() != 0 {
		t.Errorf("OverallMissRatio() = %g", r.OverallMissRatio())
	}
}

func TestSegmentKindString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" {
		t.Error("SegmentKind.String() mismatch")
	}
}

func TestPerFrameMean(t *testing.T) {
	c := testCollector()
	c.DeliveredFrame(Static, 3, 0, 100, 1000)
	c.DeliveredFrame(Static, 3, 0, 300, 1000)
	c.DeliveredFrame(Static, 7, 0, 500, 1000)
	c.Delivered(Dynamic, 0, 50, 1000) // frame 0: not attributed
	r := c.Report()
	if got := r.PerFrameMean[3]; got != 200*time.Microsecond {
		t.Errorf("PerFrameMean[3] = %v, want 200µs", got)
	}
	if got := r.PerFrameMean[7]; got != 500*time.Microsecond {
		t.Errorf("PerFrameMean[7] = %v, want 500µs", got)
	}
	if _, ok := r.PerFrameMean[0]; ok {
		t.Error("frame 0 should not be attributed")
	}
	if len(r.PerFrameMean) != 2 {
		t.Errorf("PerFrameMean has %d entries", len(r.PerFrameMean))
	}
}

func TestGoodput(t *testing.T) {
	c := testCollector()
	c.PayloadDelivered(1000)
	c.PayloadDelivered(500)
	// 2000 macroticks of channel time over two channels = 1ms simulated.
	c.ChannelTime(2000)
	r := c.Report()
	// 1500 bits over 1ms = 1.5 Mbit/s.
	if got := r.GoodputBps; got != 1_500_000 {
		t.Errorf("GoodputBps = %g, want 1.5e6", got)
	}
}
