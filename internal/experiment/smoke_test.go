package experiment

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/workload"
)

func TestRunningTimeSetupDerivesBitRate(t *testing.T) {
	set, err := runningTimeWorkload(workload.BBW(), 20, 80, 1)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	setup, err := RunningTimeSetup(set, 80)
	if err != nil {
		t.Fatalf("RunningTimeSetup: %v", err)
	}
	if setup.Config.MacroPerCycle != 5000 {
		t.Errorf("MacroPerCycle = %d, want 5000", setup.Config.MacroPerCycle)
	}
	if setup.Config.StaticSlots != 80 {
		t.Errorf("StaticSlots = %d", setup.Config.StaticSlots)
	}
	if setup.BitRate%bitRateStep != 0 || setup.BitRate < bitRateStep {
		t.Errorf("BitRate = %d, want positive multiple of 10Mbit/s", setup.BitRate)
	}
	// The largest BBW frame (1742 bits) must fit a static slot.
	if err := setup.Config.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestLatencySetup(t *testing.T) {
	set, err := latencyWorkload(workload.BBW(), latencyStaticSlots, 1)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	for _, ms := range []int{25, 50, 75, 100} {
		setup, err := LatencySetup(set, latencyStaticSlots, ms)
		if err != nil {
			t.Fatalf("LatencySetup(%d): %v", ms, err)
		}
		if setup.Config.CycleDuration() != time.Millisecond {
			t.Errorf("cycle = %v, want 1ms", setup.Config.CycleDuration())
		}
		if setup.Config.Minislots != ms {
			t.Errorf("minislots = %d, want %d", setup.Config.Minislots, ms)
		}
	}
	if _, err := LatencySetup(set, 0, 25); err == nil {
		t.Error("LatencySetup(0 slots) accepted")
	}
}

func TestFSPECCopiesGrowWithGoal(t *testing.T) {
	set, err := latencyWorkload(workload.BBW(), latencyStaticSlots, 1)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	c7 := FSPECCopies(set, BER7(), 0)
	c9 := FSPECCopies(set, BER9(), 0)
	if c7 < 1 || c9 < c7 {
		t.Errorf("copies BER-7 = %d, BER-9 = %d; want 1 ≤ c7 ≤ c9", c7, c9)
	}
}

func TestFig1RunningTimeShape(t *testing.T) {
	rows, err := RunningTime(RunningTimeOptions{
		Scenario:        BER7(),
		Seed:            1,
		Quick:           true,
		Slots:           []int{80},
		MessageCounts:   []int{20},
		SyntheticCounts: []int{20},
	})
	if err != nil {
		t.Fatalf("RunningTime: %v", err)
	}
	if len(rows) != 6 { // (BBW, ACC, synthetic) × 2 schedulers
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	byKey := make(map[string]time.Duration)
	for _, r := range rows {
		byKey[r.Workload+"/"+r.Scheduler] = r.RunningTime
	}
	for _, wl := range []string{"BBW", "ACC", "synthetic"} {
		co, fs := byKey[wl+"/CoEfficient"], byKey[wl+"/FSPEC"]
		if co <= 0 || fs <= 0 {
			t.Fatalf("%s: missing rows (co=%v fs=%v)", wl, co, fs)
		}
		if co > fs {
			t.Errorf("%s: CoEfficient %v slower than FSPEC %v", wl, co, fs)
		}
	}
}

func TestFig3UtilizationShape(t *testing.T) {
	rows, err := Utilization(UtilizationOptions{Seed: 1, Quick: true, Minislots: []int{25, 100}})
	if err != nil {
		t.Fatalf("Utilization: %v", err)
	}
	eff := make(map[string]float64)
	for _, r := range rows {
		eff[r.Scheduler+"/"+itoa(r.Minislots)] = r.Efficiency
	}
	for _, ms := range []string{"25", "100"} {
		co, fs := eff["CoEfficient/"+ms], eff["FSPEC/"+ms]
		if co <= fs {
			t.Errorf("minislots %s: CoEfficient efficiency %.3f not above FSPEC %.3f", ms, co, fs)
		}
	}
}

func TestFig5MissShape(t *testing.T) {
	rows, err := MissRatio(MissOptions{
		Seed:      1,
		Quick:     true,
		Minislots: []int{50},
		Scenarios: []Scenario{BER7()},
	})
	if err != nil {
		t.Fatalf("MissRatio: %v", err)
	}
	var co, fs float64 = -1, -1
	for _, r := range rows {
		if r.Scheduler == "CoEfficient" {
			co = r.MissRatio
		} else {
			fs = r.MissRatio
		}
	}
	if co < 0 || fs < 0 {
		t.Fatal("missing rows")
	}
	if co > fs {
		t.Errorf("CoEfficient miss ratio %.4f above FSPEC %.4f", co, fs)
	}
}

func TestFig4LatencyShape(t *testing.T) {
	rows, err := Latency(LatencyOptions{
		Seed:      1,
		Quick:     true,
		Minislots: []int{50},
		Workloads: []string{"BBW"},
		Scenarios: []Scenario{BER7(), BER9()},
	})
	if err != nil {
		t.Fatalf("Latency: %v", err)
	}
	mean := make(map[string]time.Duration)
	for _, r := range rows {
		mean[r.Scenario+"/"+r.Scheduler+"/"+r.Segment.String()] = r.Mean
	}
	// CoEfficient's cooperative scheduling beats FSPEC on dynamic latency.
	if mean["BER-7/CoEfficient/dynamic"] >= mean["BER-7/FSPEC/dynamic"] {
		t.Errorf("BER-7 dynamic: CoEfficient %v not below FSPEC %v",
			mean["BER-7/CoEfficient/dynamic"], mean["BER-7/FSPEC/dynamic"])
	}
	// The stricter BER-9 goal costs dynamic latency (more planned copies).
	if mean["BER-9/CoEfficient/dynamic"] < mean["BER-7/CoEfficient/dynamic"] {
		t.Errorf("CoEfficient dynamic latency fell from %v (BER-7) to %v (BER-9); want ≥",
			mean["BER-7/CoEfficient/dynamic"], mean["BER-9/CoEfficient/dynamic"])
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{
		Title:  "demo",
		Header: []string{"a", "long-column"},
		Rows:   [][]string{{"x", "1"}, {"yyyy", "22"}},
	}
	out := tb.String()
	if out == "" || len(out) < 20 {
		t.Fatalf("String() = %q", out)
	}
	for _, want := range []string{"demo", "long-column", "yyyy"} {
		if !contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

func contains(s, sub string) bool { return strings.Contains(s, sub) }

func TestFig4aFrameLatencySeries(t *testing.T) {
	rows, err := FrameLatency(FrameLatencyOptions{Seed: 1, Quick: true, Messages: 20})
	if err != nil {
		t.Fatalf("FrameLatency: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("no per-frame rows")
	}
	seen := make(map[string]int)
	for _, r := range rows {
		if r.FrameID < 1 || r.FrameID > 20 {
			t.Errorf("frame ID %d out of range", r.FrameID)
		}
		if r.Mean <= 0 {
			t.Errorf("frame %d/%s mean latency %v", r.FrameID, r.Scheduler, r.Mean)
		}
		seen[r.Scheduler]++
	}
	if seen["CoEfficient"] == 0 || seen["FSPEC"] == 0 {
		t.Errorf("schedulers missing from series: %v", seen)
	}
}

func TestAblationsSweep(t *testing.T) {
	rows, err := Ablations(AblationOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatalf("Ablations: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 variants", len(rows))
	}
	byName := make(map[string]AblationRow, len(rows))
	for _, r := range rows {
		byName[r.Variant] = r
	}
	// Single-channel loses steal capacity: dynamic latency must not be
	// better than the full configuration's.
	if byName["single-channel"].DynamicMean < byName["full"].DynamicMean {
		t.Errorf("single-channel dyn latency %v below full %v",
			byName["single-channel"].DynamicMean, byName["full"].DynamicMean)
	}
}

func TestTimingFaultExperiment(t *testing.T) {
	rows, err := TimingFault(TimingFaultOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatalf("TimingFault: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 variants", len(rows))
	}
	byName := make(map[string]TimingFaultRow, len(rows))
	for _, r := range rows {
		byName[r.Variant] = r
	}
	// The FTM loop must hold the cluster inside the precision bound
	// (LatencySetup: 25-macrotick slots, bound 25/4 = 6 MT) without any
	// degradation; unsynchronized the same oscillators must lose sync.
	ftm := byName["drift+FTM"]
	if ftm.Sync.Corrections == 0 || ftm.Sync.MaxOffsetMacroticks > 6 {
		t.Errorf("drift+FTM: corrections=%d maxOffset=%.2f, want corrections>0 and ≤6 MT",
			ftm.Sync.Corrections, ftm.Sync.MaxOffsetMacroticks)
	}
	if ftm.Sync.SyncLossEvents != 0 {
		t.Errorf("drift+FTM lost sync %d times", ftm.Sync.SyncLossEvents)
	}
	if byName["drift unsynced"].Sync.SyncLossEvents == 0 {
		t.Error("unsynchronized drift caused no sync loss")
	}
	// The babbling-idiot acceptance check: guardians contain the babble and
	// the static segment misses nothing; without them deadlines are missed.
	g := byName["babble+guardian"]
	ng := byName["babble no-guardian"]
	if g.Sync.GuardianBlocks == 0 {
		t.Error("guardians blocked nothing during the babble episode")
	}
	if g.StaticMiss != 0 {
		t.Errorf("guarded static miss ratio %g, want 0", g.StaticMiss)
	}
	if ng.StaticMiss <= g.StaticMiss {
		t.Errorf("unguarded static miss %g not above guarded %g", ng.StaticMiss, g.StaticMiss)
	}
	if !contains(TimingFaultTable(rows).String(), "babble+guardian") {
		t.Error("TimingFaultTable missing variant column")
	}

	only, err := TimingFault(TimingFaultOptions{Seed: 1, Quick: true, Guardians: "on"})
	if err != nil {
		t.Fatalf("TimingFault(on): %v", err)
	}
	if len(only) != 3 {
		t.Errorf("guardians=on rows = %d, want 3 (no-guardian babble row dropped)", len(only))
	}
	if _, err := TimingFault(TimingFaultOptions{Guardians: "sometimes"}); !errors.Is(err, ErrSetup) {
		t.Errorf("bad guardians value = %v, want ErrSetup", err)
	}
}

func TestLatencySetupRejectsInfeasibleDeadlines(t *testing.T) {
	set := signal.Set{Name: "tight", Messages: []signal.Message{{
		ID: 1, Name: "sub-cycle", Node: 0, Kind: signal.Periodic,
		Period: 4 * time.Millisecond, Deadline: 500 * time.Microsecond, Bits: 64,
	}}}
	if _, err := LatencySetup(set, 30, 50); !errors.Is(err, ErrSetup) {
		t.Fatalf("LatencySetup = %v, want ErrSetup (sub-cycle deadline)", err)
	}
}

func TestFig5Replicated(t *testing.T) {
	rows, err := MissRatio(MissOptions{
		Seed: 1, Quick: true, Minislots: []int{50},
		Scenarios: []Scenario{BER7()},
		Replicas:  3,
	})
	if err != nil {
		t.Fatalf("MissRatio: %v", err)
	}
	for _, r := range rows {
		if r.Replicas != 3 {
			t.Errorf("%s Replicas = %d, want 3", r.Scheduler, r.Replicas)
		}
		if r.StdDev < 0 {
			t.Errorf("%s StdDev = %g", r.Scheduler, r.StdDev)
		}
	}
	// FSPEC's miss ratio varies with the arrival seed, so with 3 replicas
	// the FSPEC row should usually carry a positive spread; CoEfficient's
	// zero misses have zero spread.
	var co MissRow
	for _, r := range rows {
		if r.Scheduler == "CoEfficient" {
			co = r
		}
	}
	if co.MissRatio != 0 || co.StdDev != 0 {
		t.Errorf("CoEfficient replicated row = %+v, want 0 ± 0", co)
	}
}

func TestTableRenderers(t *testing.T) {
	rt := RunningTimeTable("fig1", []RunningTimeRow{{
		Workload: "BBW", Slots: 80, Messages: 20,
		Scheduler: "CoEfficient", RunningTime: time.Second, Retransmissions: 5,
	}})
	if !contains(rt.String(), "BBW") || !contains(rt.String(), "1s") {
		t.Errorf("RunningTimeTable:\n%s", rt)
	}
	ut := UtilizationTable([]UtilizationRow{{
		Minislots: 25, Scheduler: "FSPEC", Efficiency: 0.25, Useful: 0.04, Raw: 0.16,
	}})
	if !contains(ut.String(), "0.250") {
		t.Errorf("UtilizationTable:\n%s", ut)
	}
	lt := LatencyTable([]LatencyRow{{
		Workload: "BBW", Segment: 2, Minislots: 50, Scenario: "BER-7",
		Scheduler: "CoEfficient", Mean: 78 * time.Microsecond, P99: time.Millisecond,
	}})
	if !contains(lt.String(), "78µs") {
		t.Errorf("LatencyTable:\n%s", lt)
	}
	mt := MissTable([]MissRow{{
		Minislots: 50, Scenario: "BER-7", Scheduler: "FSPEC",
		MissRatio: 0.41, StdDev: 0.02, Replicas: 3,
	}})
	if !contains(mt.String(), "0.4100") || !contains(mt.String(), "replicas") {
		t.Errorf("MissTable:\n%s", mt)
	}
	ft := FrameLatencyTable([]FrameLatencyRow{{
		FrameID: 3, Scheduler: "FSPEC", Mean: 100 * time.Microsecond,
	}})
	if !contains(ft.String(), "100µs") {
		t.Errorf("FrameLatencyTable:\n%s", ft)
	}
	at := AblationTable([]AblationRow{{
		Variant: "full", MissRatio: 0, DynamicMean: 77 * time.Microsecond,
		RawUtilization: 0.13, StolenStatic: 3000,
	}})
	if !contains(at.String(), "full") || !contains(at.String(), "3000") {
		t.Errorf("AblationTable:\n%s", at)
	}
}

func TestOptionDefaultsFill(t *testing.T) {
	// Zero-valued options must fill in the paper defaults.
	var rt RunningTimeOptions
	rt.fill()
	if rt.Scenario.Label != "BER-7" || len(rt.Slots) != 2 || len(rt.SyntheticCounts) == 0 {
		t.Errorf("RunningTimeOptions defaults: %+v", rt)
	}
	var lo LatencyOptions
	lo.fill()
	if len(lo.Scenarios) != 2 || len(lo.Workloads) != 3 {
		t.Errorf("LatencyOptions defaults: %+v", lo)
	}
	var mo MissOptions
	mo.fill()
	if len(mo.Minislots) != 4 || mo.Replicas != 1 {
		t.Errorf("MissOptions defaults: %+v", mo)
	}
	if streamDuration(false) <= streamDuration(true) {
		t.Error("full duration not above quick")
	}
	if batchInstances(false) <= batchInstances(true) {
		t.Error("full batch not above quick")
	}
	if _, _, err := latencyStaticSet("nope", 1, syntheticStaticSlots); err == nil {
		t.Error("unknown workload accepted by latencyStaticSet")
	}
}

func TestSynthesisComparison(t *testing.T) {
	rows, err := Synthesis(SynthesisOptions{Seed: 1})
	if err != nil {
		t.Fatalf("Synthesis: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if r.SynthesizedSlots > r.NaiveSlots {
			t.Errorf("%s: synthesis used %d slots, naive %d", r.Workload, r.SynthesizedSlots, r.NaiveSlots)
		}
		if r.SynthesizedSlots < r.LowerBound {
			t.Errorf("%s: %d slots below lower bound %d", r.Workload, r.SynthesizedSlots, r.LowerBound)
		}
		if r.Saved < 0 || r.Saved >= 1 {
			t.Errorf("%s: saved = %g", r.Workload, r.Saved)
		}
	}
}

func TestChartsBuild(t *testing.T) {
	util := UtilizationChart([]UtilizationRow{
		{Minislots: 25, Scheduler: "CoEfficient", Efficiency: 0.5},
		{Minislots: 50, Scheduler: "CoEfficient", Efficiency: 0.5},
		{Minislots: 25, Scheduler: "FSPEC", Efficiency: 0.25},
		{Minislots: 50, Scheduler: "FSPEC", Efficiency: 0.25},
	})
	if len(util.Series) != 2 || util.Series[0].X[0] != 25 {
		t.Errorf("UtilizationChart = %+v", util)
	}
	miss := MissChart([]MissRow{
		{Minislots: 50, Scenario: "BER-7", Scheduler: "FSPEC", MissRatio: 0.4},
		{Minislots: 25, Scenario: "BER-7", Scheduler: "FSPEC", MissRatio: 0.42},
	})
	if len(miss.Series) != 1 {
		t.Fatalf("MissChart series = %d", len(miss.Series))
	}
	// Series sorted by x.
	if miss.Series[0].X[0] != 25 || miss.Series[0].Y[0] != 0.42 {
		t.Errorf("MissChart not x-sorted: %+v", miss.Series[0])
	}
	fl := FrameLatencyChart([]FrameLatencyRow{
		{FrameID: 2, Scheduler: "FSPEC", Mean: 100 * time.Microsecond},
		{FrameID: 1, Scheduler: "FSPEC", Mean: 50 * time.Microsecond},
	})
	if fl.Series[0].X[0] != 1 || fl.Series[0].Y[0] != 50 {
		t.Errorf("FrameLatencyChart not sorted: %+v", fl.Series[0])
	}
	rt := RunningTimeChart("t", []RunningTimeRow{
		{Workload: "synthetic", Messages: 20, Scheduler: "FSPEC", RunningTime: time.Second},
		{Workload: "BBW", Messages: 20, Scheduler: "FSPEC", RunningTime: time.Second},
	})
	if len(rt.Series) != 1 || len(rt.Series[0].X) != 1 {
		t.Errorf("RunningTimeChart should keep only synthetic rows: %+v", rt)
	}
	lc := LatencyChart([]LatencyRow{
		{Workload: "BBW", Segment: metrics.Dynamic, Minislots: 50,
			Scenario: "BER-7", Scheduler: "CoEfficient", Mean: 78 * time.Microsecond},
	}, "BBW", metrics.Dynamic)
	if len(lc.Series) != 1 || lc.Series[0].Y[0] != 78 {
		t.Errorf("LatencyChart = %+v", lc)
	}
}

func TestWCRTExperiment(t *testing.T) {
	rows, err := WCRT(WCRTOptions{Seed: 1})
	if err != nil {
		t.Fatalf("WCRT: %v", err)
	}
	if len(rows) != 100 { // (20 static + 30 dynamic) × 2 workloads
		t.Fatalf("rows = %d, want 100", len(rows))
	}
	var staticMisses, unboundedDynamic int
	for _, r := range rows {
		if r.FrameID <= 30 && !r.MeetsDeadline {
			staticMisses++
		}
		if r.FrameID > 30 && r.WCRT < 0 {
			unboundedDynamic++
		}
	}
	// The 1ms-cycle configurations are schedule-feasible for the static
	// sets.
	if staticMisses != 0 {
		t.Errorf("%d static analytical misses", staticMisses)
	}
	// The FTDMA worst case starves deep frame IDs — the paper's Challenge
	// 1 ("heavy delays and even data loss for low-priority frames"); the
	// analysis must expose it.
	if unboundedDynamic == 0 {
		t.Error("no unbounded dynamic WCRT: FTDMA starvation not surfaced")
	}
}

func TestRunningTimeSetupRejectsTooManySlots(t *testing.T) {
	set, err := runningTimeWorkload(workload.BBW(), 5, 80, 1)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	if _, err := RunningTimeSetup(set, 2000); !errors.Is(err, ErrSetup) {
		t.Fatalf("RunningTimeSetup(2000) = %v, want ErrSetup", err)
	}
	if _, err := RunningTimeSetup(set, 0); !errors.Is(err, ErrSetup) {
		t.Fatalf("RunningTimeSetup(0) = %v, want ErrSetup", err)
	}
}
