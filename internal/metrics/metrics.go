// Package metrics accumulates the four quantities the paper's evaluation
// reports: overall running time (makespan), bandwidth utilization, average
// transmission latency per segment kind, and deadline miss ratio.
package metrics

import (
	"math"
	"math/bits"
	"slices"
	"time"

	"github.com/flexray-go/coefficient/internal/timebase"
)

// Series accumulates scalar samples and answers summary statistics.
// Samples must not be NaN.
type Series struct {
	samples []float64
	sum     float64
	max     float64
}

// Add appends a sample and keeps the running sum and maximum.
//
//perf:hotpath
func (s *Series) Add(v float64) {
	if len(s.samples) == cap(s.samples) {
		s.grow()
	}
	n := len(s.samples)
	s.samples = s.samples[:n+1]
	s.samples[n] = v
	s.sum += v
	if n == 0 || v > s.max {
		s.max = v
	}
}

// grow makes room for one more sample on append's growth schedule.
func (s *Series) grow() {
	s.samples = append(s.samples, 0)[:len(s.samples)]
}

// Reserve makes room for n more samples, so a caller that knows how many
// it may add allocates the buffer once.
func (s *Series) Reserve(n int) {
	s.samples = slices.Grow(s.samples, n)
}

// Reset empties the series in place, keeping the sample buffer so the
// next run's appends reuse it instead of re-growing.
//
//perf:hotpath
func (s *Series) Reset() {
	s.samples = s.samples[:0]
	s.sum = 0
	s.max = 0
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Max returns the largest sample, or 0 for an empty series.
func (s *Series) Max() float64 { return s.max }

// Percentile returns the p-th percentile (0 < p ≤ 100) by nearest-rank, or
// 0 for an empty series.  It selects the rank's sample in O(n) without
// sorting, and may reorder the samples.
func (s *Series) Percentile(p float64) float64 {
	if len(s.samples) == 0 || p <= 0 {
		return 0
	}
	if p > 100 {
		p = 100
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.samples))))
	if rank < 1 {
		rank = 1
	}
	return selectNth(s.samples, rank-1)
}

// selectNth reorders x so that x[k] holds the value sorting x would put
// there, and returns it: quickselect with median-of-three pivots and
// three-way partitioning, since latency series repeat values a lot.  A
// window that fails to shrink within 2·log2(n) partitions is sorted
// instead, which bounds the worst case at O(n log n).
//
//perf:hotpath
func selectNth(x []float64, k int) float64 {
	lo, hi := 0, len(x) // the window [lo, hi) holds position k
	for budget := 2 * bits.Len(uint(len(x))); hi-lo > 1; budget-- {
		if budget == 0 {
			slices.Sort(x[lo:hi])
			break
		}
		pivot := median3(x[lo], x[lo+(hi-lo)/2], x[hi-1])
		// Partition into [lo, lt) < pivot, [lt, gt) == pivot and
		// [gt, hi) > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := x[i]; {
			case v < pivot:
				x[lt], x[i] = v, x[lt]
				lt++
				i++
			case v > pivot:
				gt--
				x[i], x[gt] = x[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return pivot
		}
	}
	return x[k]
}

// median3 returns the median of three values.
func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	return max(a, b)
}

// SegmentKind distinguishes static- and dynamic-segment traffic in reports.
type SegmentKind int

// Traffic classes reported separately by the paper.
const (
	// Static covers periodic messages carried in the static segment.
	Static SegmentKind = iota + 1
	// Dynamic covers aperiodic messages carried in the dynamic segment.
	Dynamic
)

// String implements fmt.Stringer.
func (k SegmentKind) String() string {
	if k == Static {
		return "static"
	}
	return "dynamic"
}

// Collector accumulates a full simulation's worth of measurements.
type Collector struct {
	cfg timebase.Config

	// latency holds per-kind delivery latencies in macroticks, indexed by
	// SegmentKind (valid kinds are 1 and 2, so a 3-element array replaces
	// a map on the per-delivery path).
	latency [int(Dynamic) + 1]*Series
	// perFrame holds per-frame-ID delivery latency sums in macroticks
	// (Figure 4a plots mean latency against frame ID), indexed densely by
	// frame ID and grown on demand.
	perFrame []frameLatency
	// delivered/missed/dropped instances per kind.
	delivered [int(Dynamic) + 1]int64
	missed    [int(Dynamic) + 1]int64
	dropped   [int(Dynamic) + 1]int64
	// busyMT accumulates useful channel-busy macroticks: wire time of the
	// transmissions that first delivered an instance.  Redundant copies,
	// faulted attempts and surplus retransmissions do not count — this is
	// the paper's "bandwidth actually used".
	busyMT timebase.Macrotick
	// rawBusyMT accumulates all wire time, useful or not.
	rawBusyMT timebase.Macrotick
	// channelMT accumulates total channel macroticks observed.
	channelMT timebase.Macrotick
	// payloadBits accumulates delivered unique payload bits.
	payloadBits int64
	// retransmissions counts retransmission attempts put on the wire.
	retransmissions int64
	// faults counts corrupted transmissions.
	faults int64
	// makespan is the completion time of the last delivered instance.
	makespan timebase.Macrotick
	// adaptive holds the reliability controller's gauges.
	adaptive AdaptiveGauges
	// sync holds the clock-synchronization health gauges.
	sync SyncGauges
}

// frameLatency is the running latency sum of one frame ID's n deliveries;
// only its mean is reported.
type frameLatency struct {
	sum float64
	n   int64
}

// AdaptiveGauges exposes the adaptive reliability controller's counters
// and estimator readings.  The simulator hands a pointer to the scheduler
// through the environment; schedulers without a controller leave it zero.
type AdaptiveGauges struct {
	// Replans counts runtime recomputations of the retransmission plan.
	Replans int64
	// Failovers counts activations of dual-channel failover.
	Failovers int64
	// ShedMessages counts load-shedding actions (messages shed; a message
	// shed, restored and shed again counts twice).
	ShedMessages int64
	// RestoredMessages counts shed messages brought back into service.
	RestoredMessages int64
	// ObservedFER maps a channel label ("A", "B") to the estimator's most
	// recent frame-error-rate reading.
	ObservedFER map[string]float64
}

// Replan counts one runtime replan.
func (g *AdaptiveGauges) Replan() {
	g.Replans++
}

// Failover counts one failover activation.
func (g *AdaptiveGauges) Failover() {
	g.Failovers++
}

// Shed counts n messages shed (n < 0 counts -n messages restored).
func (g *AdaptiveGauges) Shed(n int) {
	if n >= 0 {
		g.ShedMessages += int64(n)
	} else {
		g.RestoredMessages += int64(-n)
	}
}

// SetFER records the estimator's frame-error-rate reading for a channel.
func (g *AdaptiveGauges) SetFER(channel string, fer float64) {
	if g.ObservedFER == nil {
		g.ObservedFER = make(map[string]float64, 2)
	}
	g.ObservedFER[channel] = fer
}

// snapshot returns a deep copy for the immutable report.
func (g AdaptiveGauges) snapshot() AdaptiveGauges {
	out := g
	if g.ObservedFER != nil {
		out.ObservedFER = make(map[string]float64, len(g.ObservedFER))
		for k, v := range g.ObservedFER {
			out.ObservedFER[k] = v
		}
	}
	return out
}

// Adaptive returns the collector's adaptive gauges for schedulers to
// update in place.
func (c *Collector) Adaptive() *AdaptiveGauges { return &c.adaptive }

// SyncGauges exposes clock-synchronization health: how hard the FTM loop is
// working and whether containment machinery fired.  The simulator's timing
// layer updates it in place; runs without local clocks leave it zero.
type SyncGauges struct {
	// SyncFrames counts sync-frame deviation measurements consumed by the
	// FTM correction loop.
	SyncFrames int64
	// Corrections counts applied offset corrections.
	Corrections int64
	// MaxOffsetMacroticks is the largest observed inter-node clock offset
	// magnitude, in macroticks.
	MaxOffsetMacroticks float64
	// MaxCorrectionMacroticks is the largest applied offset-correction
	// magnitude, in macroticks.
	MaxCorrectionMacroticks float64
	// GuardianBlocks counts transmissions vetoed by a bus guardian.
	GuardianBlocks int64
	// SyncLossEvents counts nodes exceeding the precision bound (or losing
	// their sync-frame view) per double-cycle check.
	SyncLossEvents int64
	// PassiveTransitions counts normal-active → normal-passive demotions.
	PassiveTransitions int64
	// Halts counts normal-passive → halt transitions.
	Halts int64
	// Reintegrations counts halted nodes that rejoined the cluster.
	Reintegrations int64
}

// SyncFrame counts n sync-frame deviation measurements.
func (g *SyncGauges) SyncFrame(n int) {
	g.SyncFrames += int64(n)
}

// Correction records one applied offset correction of the given magnitude
// in macroticks.
func (g *SyncGauges) Correction(magnitudeMT float64) {
	g.Corrections++
	if magnitudeMT < 0 {
		magnitudeMT = -magnitudeMT
	}
	if magnitudeMT > g.MaxCorrectionMacroticks {
		g.MaxCorrectionMacroticks = magnitudeMT
	}
}

// ObserveOffset records an inter-node clock offset reading in macroticks.
func (g *SyncGauges) ObserveOffset(offsetMT float64) {
	if offsetMT < 0 {
		offsetMT = -offsetMT
	}
	if offsetMT > g.MaxOffsetMacroticks {
		g.MaxOffsetMacroticks = offsetMT
	}
}

// GuardianBlock counts one bus-guardian veto.
func (g *SyncGauges) GuardianBlock() {
	g.GuardianBlocks++
}

// SyncLoss counts one precision-bound violation.
func (g *SyncGauges) SyncLoss() {
	g.SyncLossEvents++
}

// Passive counts one demotion to normal-passive.
func (g *SyncGauges) Passive() {
	g.PassiveTransitions++
}

// Halt counts one transition to the halt state.
func (g *SyncGauges) Halt() {
	g.Halts++
}

// Reintegration counts one halted node rejoining the cluster.
func (g *SyncGauges) Reintegration() {
	g.Reintegrations++
}

// SyncHealth returns the collector's sync gauges for the simulator's timing
// layer to update in place.
func (c *Collector) SyncHealth() *SyncGauges { return &c.sync }

// NewCollector returns a collector for simulations under cfg.
func NewCollector(cfg timebase.Config) *Collector {
	c := &Collector{cfg: cfg}
	c.latency[Static] = &Series{}
	c.latency[Dynamic] = &Series{}
	return c
}

// ReserveLatencies makes room for n more latency samples of the kind, for
// runs that can bound their delivery count up front.
func (c *Collector) ReserveLatencies(kind SegmentKind, n int) {
	c.latency[kind].Reserve(n)
}

// Reset returns the collector to its just-constructed state while
// keeping every buffer: the latency series are truncated in place and the
// per-frame sums and all counters zeroed.  The AdaptiveGauges and SyncGauges
// values are cleared without moving, so the pointers handed out by
// Adaptive and SyncHealth stay valid across replicas.
//
//perf:hotpath
func (c *Collector) Reset() {
	c.latency[Static].Reset()
	c.latency[Dynamic].Reset()
	clear(c.perFrame)
	for kind := range c.delivered {
		c.delivered[kind] = 0
		c.missed[kind] = 0
		c.dropped[kind] = 0
	}
	c.busyMT = 0
	c.rawBusyMT = 0
	c.channelMT = 0
	c.payloadBits = 0
	c.retransmissions = 0
	c.faults = 0
	c.makespan = 0
	c.adaptive = AdaptiveGauges{}
	c.sync = SyncGauges{}
}

// DeliveredFrame records a successful delivery: release-to-completion
// latency, whether the deadline was met, and per-frame-ID latency
// attribution (frameID 0 skips the per-frame series).
func (c *Collector) DeliveredFrame(kind SegmentKind, frameID int, release, completion, deadline timebase.Macrotick) {
	c.latency[kind].Add(float64(completion - release))
	if frameID > 0 {
		if frameID >= len(c.perFrame) {
			grown := make([]frameLatency, frameID+1)
			copy(grown, c.perFrame)
			c.perFrame = grown
		}
		f := &c.perFrame[frameID]
		f.sum += float64(completion - release)
		f.n++
	}
	c.delivered[kind]++
	if completion > deadline {
		c.missed[kind]++
	}
	if completion > c.makespan {
		c.makespan = completion
	}
}

// Dropped records an instance abandoned without delivery (counted as a
// deadline miss).
func (c *Collector) Dropped(kind SegmentKind) {
	c.dropped[kind]++
	c.missed[kind]++
}

// BusBusy adds useful channel-busy time (first-delivery transmissions).
func (c *Collector) BusBusy(mt timebase.Macrotick) { c.busyMT += mt }

// PayloadDelivered adds a delivered instance's unique payload bits.
func (c *Collector) PayloadDelivered(bits int) { c.payloadBits += int64(bits) }

// RawBusy adds wire time regardless of usefulness (faulted attempts,
// redundant copies, retransmissions).
func (c *Collector) RawBusy(mt timebase.Macrotick) { c.rawBusyMT += mt }

// ChannelTime adds observed channel time (per channel: one cycle simulated
// on two channels adds two cycle lengths).
func (c *Collector) ChannelTime(mt timebase.Macrotick) { c.channelMT += mt }

// Retransmission counts one retransmission attempt on the wire.
func (c *Collector) Retransmission() { c.retransmissions++ }

// Fault counts one corrupted transmission.
func (c *Collector) Fault() { c.faults++ }

// Report is an immutable summary of a simulation run.
type Report struct {
	// Makespan is the completion time of the last delivered instance.
	Makespan time.Duration
	// BandwidthUtilization is useful busy channel time over total channel
	// time, in [0, 1] — the paper's "ratio of the bandwidth that is
	// actually used to the whole bandwidth".
	BandwidthUtilization float64
	// RawUtilization is all wire time over total channel time; it exceeds
	// BandwidthUtilization by the cost of faults, redundancy and
	// retransmissions.
	RawUtilization float64
	// GoodputBps is the delivered unique payload rate in bits per second
	// of simulated time (0 when no channel time was observed).
	GoodputBps float64
	// MeanLatency maps segment kind to the mean delivery latency.
	MeanLatency map[SegmentKind]time.Duration
	// P99Latency maps segment kind to the 99th-percentile latency.
	P99Latency map[SegmentKind]time.Duration
	// MaxLatency maps segment kind to the maximum latency.
	MaxLatency map[SegmentKind]time.Duration
	// DeadlineMissRatio maps segment kind to misses (late deliveries plus
	// drops) over all completed-or-dropped instances.
	DeadlineMissRatio map[SegmentKind]float64
	// PerFrameMean maps frame IDs to mean delivery latency (only frames
	// recorded with DeliveredFrame appear).
	PerFrameMean map[int]time.Duration
	// Delivered, Dropped count instances per kind.
	Delivered, Dropped map[SegmentKind]int64
	// Retransmissions is the number of retransmission attempts.
	Retransmissions int64
	// Faults is the number of corrupted transmissions.
	Faults int64
	// Adaptive holds the adaptive reliability controller's gauges (all
	// zero for schedulers without a controller).
	Adaptive AdaptiveGauges
	// Sync holds the clock-synchronization health gauges (all zero for
	// runs without local clocks).
	Sync SyncGauges
}

// Report summarizes the collected measurements.
func (c *Collector) Report() Report {
	r := Report{
		Makespan:          c.cfg.ToDuration(c.makespan),
		PerFrameMean:      make(map[int]time.Duration, len(c.perFrame)),
		MeanLatency:       make(map[SegmentKind]time.Duration, 2),
		P99Latency:        make(map[SegmentKind]time.Duration, 2),
		MaxLatency:        make(map[SegmentKind]time.Duration, 2),
		DeadlineMissRatio: make(map[SegmentKind]float64, 2),
		Delivered:         make(map[SegmentKind]int64, 2),
		Dropped:           make(map[SegmentKind]int64, 2),
		Retransmissions:   c.retransmissions,
		Faults:            c.faults,
		Adaptive:          c.adaptive.snapshot(),
		Sync:              c.sync,
	}
	if c.channelMT > 0 {
		r.BandwidthUtilization = float64(c.busyMT) / float64(c.channelMT)
		r.RawUtilization = float64(c.rawBusyMT) / float64(c.channelMT)
		// channelMT counts both channels; simulated time is half of it.
		simSeconds := float64(c.cfg.ToDuration(c.channelMT/2)) / float64(time.Second)
		if simSeconds > 0 {
			r.GoodputBps = float64(c.payloadBits) / simSeconds
		}
	}
	for id, f := range c.perFrame {
		if f.n > 0 {
			r.PerFrameMean[id] = c.cfg.ToDuration(timebase.Macrotick(f.sum / float64(f.n)))
		}
	}
	for _, kind := range []SegmentKind{Static, Dynamic} {
		s := c.latency[kind]
		r.MeanLatency[kind] = c.cfg.ToDuration(timebase.Macrotick(s.Mean()))
		r.P99Latency[kind] = c.cfg.ToDuration(timebase.Macrotick(s.Percentile(99)))
		r.MaxLatency[kind] = c.cfg.ToDuration(timebase.Macrotick(s.Max()))
		r.Delivered[kind] = c.delivered[kind]
		r.Dropped[kind] = c.dropped[kind]
		total := c.delivered[kind] + c.dropped[kind]
		if total > 0 {
			r.DeadlineMissRatio[kind] = float64(c.missed[kind]) / float64(total)
		}
	}
	return r
}

// OverallMissRatio returns the miss ratio across both kinds.
func (r Report) OverallMissRatio() float64 {
	var missedWeighted float64
	var total int64
	for _, kind := range []SegmentKind{Static, Dynamic} {
		n := r.Delivered[kind] + r.Dropped[kind]
		missedWeighted += r.DeadlineMissRatio[kind] * float64(n)
		total += n
	}
	if total == 0 {
		return 0
	}
	return missedWeighted / float64(total)
}
