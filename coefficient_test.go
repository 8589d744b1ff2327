package coefficient_test

import (
	"testing"
	"time"

	coefficient "github.com/flexray-go/coefficient"
)

func bbwWithSAE(t *testing.T) coefficient.MessageSet {
	t.Helper()
	sae, err := coefficient.SAEAperiodic(coefficient.SAEAperiodicOptions{FirstID: 31, Seed: 1})
	if err != nil {
		t.Fatalf("SAEAperiodic: %v", err)
	}
	set, err := coefficient.MergeWorkloads("bbw+sae", coefficient.BBW(), sae)
	if err != nil {
		t.Fatalf("MergeWorkloads: %v", err)
	}
	return set
}

func TestPublicAPISimulation(t *testing.T) {
	set := bbwWithSAE(t)
	setup, err := coefficient.DeriveLatencySetup(set, 30, 50)
	if err != nil {
		t.Fatalf("DeriveLatencySetup: %v", err)
	}
	injA, err := coefficient.NewBERInjector(1e-7, 1)
	if err != nil {
		t.Fatalf("NewBERInjector: %v", err)
	}
	rec := coefficient.NewTraceRecorder()
	res, err := coefficient.Simulate(coefficient.SimOptions{
		Config:    setup.Config,
		Workload:  set,
		BitRate:   setup.BitRate,
		InjectorA: injA,
		Seed:      1,
		Mode:      coefficient.Streaming,
		Duration:  200 * time.Millisecond,
		Sink:      rec,
	}, coefficient.NewCoEfficient(coefficient.SchedulerOptions{BER: 1e-7, Goal: 0.999}))
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.Scheduler != "CoEfficient" {
		t.Errorf("Scheduler = %q", res.Scheduler)
	}
	if res.Report.Delivered[coefficient.StaticSegment] == 0 {
		t.Error("no static deliveries through the public API")
	}
	if rec.Len() == 0 {
		t.Error("trace recorder captured nothing")
	}
}

func TestPublicAPIWorkloads(t *testing.T) {
	if got := len(coefficient.BBW().Messages); got != 20 {
		t.Errorf("BBW has %d messages", got)
	}
	if got := len(coefficient.ACC().Messages); got != 20 {
		t.Errorf("ACC has %d messages", got)
	}
	syn, err := coefficient.Synthetic(coefficient.SyntheticOptions{Messages: 10, Seed: 3})
	if err != nil || len(syn.Messages) != 10 {
		t.Errorf("Synthetic: %v, %d messages", err, len(syn.Messages))
	}
	cluster := coefficient.DualChannelBus(10)
	if err := cluster.Validate(); err != nil {
		t.Errorf("DualChannelBus: %v", err)
	}
}

func TestPublicAPIReliability(t *testing.T) {
	msgs := []coefficient.ReliabilityMessage{
		{Name: "a", Bits: 1000, Period: time.Millisecond},
		{Name: "b", Bits: 200, Period: 10 * time.Millisecond},
	}
	plan, err := coefficient.PlanDifferentiated(msgs, 1e-6, time.Second, 0.999, 0)
	if err != nil {
		t.Fatalf("PlanDifferentiated: %v", err)
	}
	if plan.Success < 0.999 {
		t.Errorf("plan success %g below goal", plan.Success)
	}
	p, err := coefficient.SuccessProbability(msgs, 1e-6, time.Second, plan.Retransmissions)
	if err != nil || p < 0.999 {
		t.Errorf("SuccessProbability = %g, %v", p, err)
	}
	fp, err := coefficient.FrameFailureProb(1e-6, 1000)
	if err != nil || fp <= 0 || fp >= 1 {
		t.Errorf("FrameFailureProb = %g, %v", fp, err)
	}
	if coefficient.SIL3.Goal(time.Second) <= coefficient.SIL2.Goal(time.Second) {
		t.Error("SIL3 goal not stricter than SIL2")
	}
}

func TestPublicAPIPacking(t *testing.T) {
	signals := []coefficient.Signal{
		{Name: "x", Node: 1, Kind: coefficient.PeriodicMessage,
			Period: 10 * time.Millisecond, Deadline: 10 * time.Millisecond, Bits: 100},
		{Name: "y", Node: 1, Kind: coefficient.PeriodicMessage,
			Period: 10 * time.Millisecond, Deadline: 10 * time.Millisecond, Bits: 200},
	}
	msgs, err := coefficient.PackSignals(signals, coefficient.PackOptions{})
	if err != nil {
		t.Fatalf("PackSignals: %v", err)
	}
	if len(msgs) != 1 || msgs[0].Bits != 300 {
		t.Errorf("PackSignals = %+v", msgs)
	}
}

func TestPublicAPIScenarios(t *testing.T) {
	s7, s9 := coefficient.ScenarioBER7(), coefficient.ScenarioBER9()
	if s7.Label != "BER-7" || s9.Label != "BER-9" {
		t.Errorf("labels: %q, %q", s7.Label, s9.Label)
	}
	if s9.Goal <= s7.Goal {
		t.Error("BER-9 goal not stricter than BER-7")
	}
}

func TestPublicAPIExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	rows, err := coefficient.MissRatioExperiment(coefficient.MissOptions{
		Seed: 1, Quick: true, Minislots: []int{50},
		Scenarios: []coefficient.ExperimentScenario{coefficient.ScenarioBER7()},
	})
	if err != nil {
		t.Fatalf("MissRatioExperiment: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
}

func TestPublicAPISurface(t *testing.T) {
	// Exercise every façade function not covered elsewhere, so the public
	// surface cannot silently rot.
	set := bbwWithSAE(t)

	setup, err := coefficient.DeriveRunningTimeSetup(set30(t, set), 80)
	if err != nil {
		t.Fatalf("DeriveRunningTimeSetup: %v", err)
	}
	if setup.Config.StaticSlots != 80 {
		t.Errorf("StaticSlots = %d", setup.Config.StaticSlots)
	}

	lat, err := coefficient.DeriveLatencySetup(set, 30, 50)
	if err != nil {
		t.Fatalf("DeriveLatencySetup: %v", err)
	}
	results, err := coefficient.AnalyzeWCRT(set, lat.Config, lat.BitRate)
	if err != nil {
		t.Fatalf("AnalyzeWCRT: %v", err)
	}
	if len(results) != 50 {
		t.Errorf("AnalyzeWCRT results = %d", len(results))
	}
	tbl, err := coefficient.BuildSchedule(set, lat.Config)
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	if _, err := coefficient.StaticWCRT(tbl, 1); err != nil {
		t.Errorf("StaticWCRT: %v", err)
	}
	if _, err := coefficient.DynamicWCRT(set, lat.Config, lat.BitRate, 31); err != nil {
		t.Errorf("DynamicWCRT: %v", err)
	}

	boot, err := coefficient.SimulateStartup(coefficient.StartupConfig{
		Nodes: []coefficient.StartupNode{
			{Name: "a", Coldstart: true},
			{Name: "b", Coldstart: true},
			{Name: "c"},
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatalf("SimulateStartup: %v", err)
	}
	if len(boot.JoinCycle) != 3 {
		t.Errorf("JoinCycle = %v", boot.JoinCycle)
	}

	syncRep, err := coefficient.SimulateClockSync(coefficient.ClockSyncConfig{
		Cycles: 50, SyncNodes: 4, MaxInitialOffset: 100, MaxDrift: 2,
		MeasurementNoise: 1, Seed: 1,
	}, 50)
	if err != nil {
		t.Fatalf("SimulateClockSync: %v", err)
	}
	if !syncRep.Converged {
		t.Errorf("clock sync did not converge: %+v", syncRep)
	}

	if _, err := coefficient.NewGilbertElliott(coefficient.GilbertElliottConfig{
		BERGood: 1e-7, BERBad: 1e-3, PGoodToBad: 0.01, PBadToGood: 0.1,
	}, 1); err != nil {
		t.Errorf("NewGilbertElliott: %v", err)
	}
	if got := coefficient.NewFSPEC(coefficient.FSPECOptions{}).Name(); got != "FSPEC" {
		t.Errorf("NewFSPEC Name = %q", got)
	}

	sigSet, err := coefficient.SyntheticSignals(coefficient.SignalLevelOptions{Signals: 50, Seed: 1})
	if err != nil || len(sigSet.Messages) == 0 {
		t.Errorf("SyntheticSignals: %v, %d messages", err, len(sigSet.Messages))
	}

	msgs := []coefficient.ReliabilityMessage{{Name: "m", Bits: 500, Period: time.Millisecond}}
	if _, err := coefficient.PlanUniform(msgs, 1e-6, time.Second, 0.999, 0); err != nil {
		t.Errorf("PlanUniform: %v", err)
	}
}

// set30 trims a workload's dynamic frame IDs to fit an 80-slot cycle by
// rebuilding the SAE set above 80.
func set30(t *testing.T, set coefficient.MessageSet) coefficient.MessageSet {
	t.Helper()
	sae, err := coefficient.SAEAperiodic(coefficient.SAEAperiodicOptions{FirstID: 81, Seed: 1})
	if err != nil {
		t.Fatalf("SAEAperiodic: %v", err)
	}
	out, err := coefficient.MergeWorkloads("for-80-slots", coefficient.BBW(), sae)
	if err != nil {
		t.Fatalf("MergeWorkloads: %v", err)
	}
	_ = set
	return out
}

func TestPublicAPIExperimentFacades(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness")
	}
	if _, err := coefficient.RunningTimeExperiment(coefficient.RunningTimeOptions{
		Seed: 1, Quick: true, Slots: []int{80},
		MessageCounts: []int{5}, SyntheticCounts: []int{20},
	}); err != nil {
		t.Errorf("RunningTimeExperiment: %v", err)
	}
	if _, err := coefficient.UtilizationExperiment(coefficient.UtilizationOptions{
		Seed: 1, Quick: true, Minislots: []int{50},
	}); err != nil {
		t.Errorf("UtilizationExperiment: %v", err)
	}
	if _, err := coefficient.LatencyExperiment(coefficient.LatencyOptions{
		Seed: 1, Quick: true, Minislots: []int{50}, Workloads: []string{"BBW"},
		Scenarios: []coefficient.ExperimentScenario{coefficient.ScenarioBER7()},
	}); err != nil {
		t.Errorf("LatencyExperiment: %v", err)
	}
	if _, err := coefficient.FrameLatencyExperiment(coefficient.FrameLatencyOptions{
		Seed: 1, Quick: true, Messages: 20,
	}); err != nil {
		t.Errorf("FrameLatencyExperiment: %v", err)
	}
	if _, err := coefficient.AblationExperiment(coefficient.AblationOptions{
		Seed: 1, Quick: true,
	}); err != nil {
		t.Errorf("AblationExperiment: %v", err)
	}
}

func TestPublicAPIScheduleSynthesis(t *testing.T) {
	set := coefficient.BBW()
	setup, err := coefficient.DeriveLatencySetup(set, 30, 50)
	if err != nil {
		t.Fatalf("DeriveLatencySetup: %v", err)
	}
	syn, err := coefficient.SynthesizeSchedule(set, setup.Config)
	if err != nil {
		t.Fatalf("SynthesizeSchedule: %v", err)
	}
	bound, err := coefficient.MinScheduleSlots(set, setup.Config)
	if err != nil {
		t.Fatalf("MinScheduleSlots: %v", err)
	}
	if syn.SlotsUsed != bound {
		t.Errorf("SlotsUsed = %d, bound %d", syn.SlotsUsed, bound)
	}
	if syn.SlotsUsed >= len(set.Messages) {
		t.Errorf("synthesis saved nothing: %d slots for %d messages",
			syn.SlotsUsed, len(set.Messages))
	}
}

func TestPublicAPISynthesisExperiment(t *testing.T) {
	rows, err := coefficient.SynthesisExperiment(coefficient.SynthesisOptions{Seed: 1})
	if err != nil {
		t.Fatalf("SynthesisExperiment: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestPublicAPIWakeupAndNM(t *testing.T) {
	rep, err := coefficient.SimulateWakeup(coefficient.WakeupConfig{
		Nodes: []coefficient.WakeupNode{
			{Name: "w", CanWake: true},
			{Name: "n", WakeDelay: 2},
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatalf("SimulateWakeup: %v", err)
	}
	if rep.Initiator != "w" || len(rep.AwakeCycle) != 2 {
		t.Errorf("wakeup = %+v", rep)
	}

	agg, err := coefficient.NewNMAggregator(2)
	if err != nil {
		t.Fatalf("NewNMAggregator: %v", err)
	}
	v, err := coefficient.NewNMVector(2)
	if err != nil {
		t.Fatalf("NewNMVector: %v", err)
	}
	if err := v.SetBit(5); err != nil {
		t.Fatalf("SetBit: %v", err)
	}
	if err := agg.Observe(v); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if agg.ReadyToSleep() {
		t.Error("awake bit set but ReadyToSleep")
	}
}
