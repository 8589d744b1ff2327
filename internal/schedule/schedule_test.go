package schedule

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/workload"
)

func cfg1ms() timebase.Config {
	return timebase.LatencyConfig(50)
}

// cfg5ms is the Figures 1-2 geometry experiment.RunningTimeSetup builds
// for 80 static slots: a 5 ms cycle, 37-macrotick slots filling 2960 MT of
// the 3 ms static budget, then 250 eight-macrotick minislots.
func cfg5ms() timebase.Config {
	return timebase.Config{
		MacrotickDuration:         time.Microsecond,
		MacroPerCycle:             5000,
		StaticSlots:               80,
		StaticSlotLen:             37,
		Minislots:                 250,
		MinislotLen:               8,
		DynamicSlotIdlePhase:      1,
		MinislotActionPointOffset: 2,
	}
}

func periodic(id int, period, deadline, offset time.Duration) signal.Message {
	return signal.Message{
		ID:       id,
		Name:     "m",
		Node:     0,
		Kind:     signal.Periodic,
		Period:   period,
		Offset:   offset,
		Deadline: deadline,
		Bits:     64,
	}
}

func TestBuildRepetitions(t *testing.T) {
	set := signal.Set{Name: "w", Messages: []signal.Message{
		periodic(1, time.Millisecond, time.Millisecond, 0),
		periodic(2, 4*time.Millisecond, 4*time.Millisecond, 0),
		periodic(3, 6*time.Millisecond, 6*time.Millisecond, 0), // not a power of two
		periodic(4, 128*time.Millisecond, 128*time.Millisecond, 0),
	}}
	tbl, err := Build(set, cfg1ms())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	wantRep := map[int]int{1: 1, 2: 4, 3: 4, 4: 64} // clamped to window
	for _, e := range tbl.Entries {
		if e.Repetition != wantRep[e.FrameID] {
			t.Errorf("slot %d repetition = %d, want %d", e.FrameID, e.Repetition, wantRep[e.FrameID])
		}
		if !e.Feasible {
			t.Errorf("slot %d infeasible: %s", e.FrameID, e.Reason)
		}
	}
	if !tbl.Feasible() {
		t.Error("Feasible() = false")
	}
}

func TestBuildCadenceIsDeadlineAware(t *testing.T) {
	// Period 4ms but deadline 2ms: the cadence must follow the deadline
	// (repetition 2), not the period (repetition 4).
	set := signal.Set{Name: "w", Messages: []signal.Message{
		periodic(1, 4*time.Millisecond, 2*time.Millisecond, 0),
	}}
	tbl, err := Build(set, cfg1ms())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !tbl.Feasible() {
		t.Fatalf("Feasible() = false: %+v", tbl.Infeasible())
	}
	if got := tbl.Entries[0].Repetition; got != 2 {
		t.Errorf("Repetition = %d, want 2", got)
	}
}

func TestBuildDetectsSubCycleDeadline(t *testing.T) {
	// A deadline shorter than one communication cycle can never be met by
	// a once-per-cycle slot.
	set := signal.Set{Name: "w", Messages: []signal.Message{
		periodic(1, 4*time.Millisecond, 500*time.Microsecond, 0),
	}}
	tbl, err := Build(set, cfg1ms())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if tbl.Feasible() {
		t.Fatal("sub-cycle deadline should be infeasible")
	}
	inf := tbl.Infeasible()
	if len(inf) != 1 || inf[0].Reason == "" {
		t.Errorf("Infeasible() = %+v", inf)
	}
}

func TestBuildDetectsSubCyclePeriods(t *testing.T) {
	// A 5ms cycle cannot carry a 1ms-period message: cadence 5ms > period.
	set := signal.Set{Name: "w", Messages: []signal.Message{
		periodic(1, time.Millisecond, time.Millisecond, 0),
	}}
	tbl, err := Build(set, cfg5ms())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if tbl.Feasible() {
		t.Fatal("1ms period in a 5ms cycle should be infeasible")
	}
}

func TestLookup(t *testing.T) {
	set := signal.Set{Name: "w", Messages: []signal.Message{
		periodic(2, 4*time.Millisecond, 4*time.Millisecond, 0),
	}}
	tbl, err := Build(set, cfg1ms())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	e := tbl.Entries[0]
	hits := 0
	for c := int64(0); c < CycleWindow; c++ {
		if m := tbl.Lookup(2, c); m != nil {
			hits++
			if int(c)%e.Repetition != e.BaseCycle {
				t.Errorf("Lookup hit at cycle %d outside cadence", c)
			}
		}
	}
	if hits != CycleWindow/e.Repetition {
		t.Errorf("hits = %d, want %d", hits, CycleWindow/e.Repetition)
	}
	if tbl.Lookup(9, 0) != nil {
		t.Error("Lookup of unassigned slot returned a message")
	}
}

func TestBaseCycleHonorsOffset(t *testing.T) {
	// Slot 1 starts at macrotick 0 of each 1ms cycle; an offset of 2.5ms
	// pushes the base cycle to 3.
	set := signal.Set{Name: "w", Messages: []signal.Message{
		periodic(1, 8*time.Millisecond, 8*time.Millisecond, 2500*time.Microsecond),
	}}
	tbl, err := Build(set, cfg1ms())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := tbl.Entries[0].BaseCycle; got != 3 {
		t.Errorf("BaseCycle = %d, want 3", got)
	}
}

func TestBuildErrors(t *testing.T) {
	badID := signal.Set{Name: "w", Messages: []signal.Message{
		periodic(99, time.Millisecond, time.Millisecond, 0),
	}}
	if _, err := Build(badID, cfg1ms()); !errors.Is(err, ErrSlotRange) {
		t.Errorf("bad frame ID: %v, want ErrSlotRange", err)
	}
	badCfg := cfg1ms()
	badCfg.StaticSlots = 0
	if _, err := Build(signal.Set{}, badCfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestUtilizationAndLoad(t *testing.T) {
	set := signal.Set{Name: "w", Messages: []signal.Message{
		periodic(1, time.Millisecond, time.Millisecond, 0),       // rep 1: load 1
		periodic(2, 64*time.Millisecond, 64*time.Millisecond, 0), // rep 64: load 1/64
	}}
	tbl, err := Build(set, cfg1ms())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := tbl.SlotLoad(1); got != 1 {
		t.Errorf("SlotLoad(1) = %g", got)
	}
	if got := tbl.SlotLoad(2); got != 1.0/64 {
		t.Errorf("SlotLoad(2) = %g", got)
	}
	if got := tbl.SlotLoad(3); got != 0 {
		t.Errorf("SlotLoad(3) = %g, want 0", got)
	}
	want := (64.0 + 1.0) / float64(30*64)
	if got := tbl.Utilization(); got != want {
		t.Errorf("Utilization() = %g, want %g", got, want)
	}
}

func TestBBWTableFeasibleInLatencyConfig(t *testing.T) {
	tbl, err := Build(workload.BBW(), timebase.LatencyConfig(50))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !tbl.Feasible() {
		t.Errorf("BBW infeasible in the 1ms cycle: %+v", tbl.Infeasible())
	}
	if len(tbl.Entries) != 20 {
		t.Errorf("entries = %d, want 20", len(tbl.Entries))
	}
}

func TestBBWTableInfeasibleInRunningTimeConfig(t *testing.T) {
	// The 5ms cycle cannot honor BBW's 1ms deadlines — exactly why the
	// running-time experiments use batch mode.
	tbl, err := Build(workload.BBW(), cfg5ms())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if tbl.Feasible() {
		t.Error("BBW should be infeasible in the 5ms cycle")
	}
}

func TestStringRendering(t *testing.T) {
	tbl, err := Build(workload.ACC(), timebase.LatencyConfig(50))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	out := tbl.String()
	if !strings.Contains(out, "static schedule table") || !strings.Contains(out, "ACC-01") {
		t.Errorf("String() = %q", out)
	}
}
