package fspec_test

import (
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/fspec"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/trace"
)

func testConfig() timebase.Config {
	return timebase.Config{
		MacrotickDuration:         time.Microsecond,
		MacroPerCycle:             1000,
		StaticSlots:               10,
		StaticSlotLen:             50,
		Minislots:                 40,
		MinislotLen:               5,
		DynamicSlotIdlePhase:      1,
		MinislotActionPointOffset: 1,
	}
}

func smallWorkload() signal.Set {
	return signal.Set{Name: "w", Messages: []signal.Message{
		{ID: 1, Name: "s1", Node: 0, Kind: signal.Periodic,
			Period: 5 * time.Millisecond, Deadline: 5 * time.Millisecond, Bits: 64},
		{ID: 20, Name: "d20", Node: 1, Kind: signal.Aperiodic,
			Period: 10 * time.Millisecond, Deadline: 10 * time.Millisecond,
			Bits: 64, Priority: 1},
	}}
}

func TestName(t *testing.T) {
	if got := fspec.New(fspec.Options{}).Name(); got != "FSPEC" {
		t.Errorf("Name() = %q", got)
	}
}

func TestBlindCopiesGoOutEvenWithoutFaults(t *testing.T) {
	rec := trace.New()
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: smallWorkload(),
		Mode:     sim.Streaming,
		Duration: 50 * time.Millisecond,
		Seed:     1,
		Sink:     rec,
	}, fspec.New(fspec.Options{Copies: 3}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	// 3 copies per channel = 6 wire attempts per instance, only 1 useful:
	// raw utilization must be ≈6× the useful one.
	ratio := r.RawUtilization / r.BandwidthUtilization
	if ratio < 5.5 || ratio > 6.5 {
		t.Errorf("raw/useful = %g, want ≈6 with Copies=3", ratio)
	}
	// Copies beyond the first are retransmissions.
	if r.Retransmissions == 0 {
		t.Error("no blind copies counted as retransmissions")
	}
	// No deadline should be missed in a lightly loaded fault-free run.
	if got := r.OverallMissRatio(); got != 0 {
		t.Errorf("miss ratio = %g, want 0", got)
	}
}

func TestCopiesDefaultsToOne(t *testing.T) {
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: smallWorkload(),
		Mode:     sim.Streaming,
		Duration: 50 * time.Millisecond,
		Seed:     1,
	}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := res.Report
	ratio := r.RawUtilization / r.BandwidthUtilization
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("raw/useful = %g, want ≈2 (A + B duplicate)", ratio)
	}
}

func TestZeroCopiesClamped(t *testing.T) {
	// Copies: 0 must behave like 1, not suppress all traffic.
	res, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: smallWorkload(),
		Mode:     sim.Streaming,
		Duration: 20 * time.Millisecond,
		Seed:     1,
	}, fspec.New(fspec.Options{Copies: 0}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Report.Delivered[metrics.Static] == 0 {
		t.Error("nothing delivered with Copies: 0")
	}
}

func TestDynamicSegmentOnly(t *testing.T) {
	// FSPEC never places dynamic traffic in static slots: all dynamic
	// transmissions start inside the dynamic segment window.
	rec := trace.New()
	_, err := sim.Run(sim.Options{
		Config:   testConfig(),
		Workload: smallWorkload(),
		Mode:     sim.Streaming,
		Duration: 50 * time.Millisecond,
		Seed:     3,
		Sink:     rec,
	}, fspec.New(fspec.Options{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cfg := testConfig()
	for _, ev := range rec.Filter(func(e trace.Event) bool {
		return e.Kind == trace.EventTxStart && e.FrameID == 20
	}) {
		win, _ := cfg.SlotAt(ev.Time)
		if win != timebase.WindowDynamic {
			t.Fatalf("dynamic frame transmitted in %v window at t=%d", win, ev.Time)
		}
	}
}
