// Benchmark harness: one benchmark per paper table/figure plus the ablation
// benches called out in DESIGN.md.  Each benchmark runs its experiment in
// quick mode and reports the headline quantities (makespans, ratios) as
// custom metrics, so `go test -bench=.` regenerates the paper's rows.
package coefficient_test

import (
	"testing"
	"time"

	coefficient "github.com/flexray-go/coefficient"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/schedule"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/workload"
)

func runningTimeBench(b *testing.B, sc coefficient.ExperimentScenario) {
	b.Helper()
	b.ReportAllocs()
	var co, fs time.Duration
	for i := 0; i < b.N; i++ {
		rows, err := coefficient.RunningTimeExperiment(coefficient.RunningTimeOptions{
			Scenario:        sc,
			Seed:            1,
			Quick:           true,
			Slots:           []int{80},
			MessageCounts:   []int{20},
			SyntheticCounts: []int{20},
		})
		if err != nil {
			b.Fatal(err)
		}
		var foundCo, foundFS bool
		for _, r := range rows {
			if r.Workload != "BBW" {
				continue
			}
			if r.Scheduler == "CoEfficient" {
				co, foundCo = r.RunningTime, true
			} else {
				fs, foundFS = r.RunningTime, true
			}
		}
		if !foundCo || !foundFS {
			b.Fatalf("missing BBW rows: CoEfficient=%v FSPEC=%v", foundCo, foundFS)
		}
	}
	b.ReportMetric(co.Seconds(), "coeff-makespan-s")
	b.ReportMetric(fs.Seconds(), "fspec-makespan-s")
	if co > 0 {
		b.ReportMetric(fs.Seconds()/co.Seconds(), "fspec/coeff")
	}
}

// BenchmarkFig1RunningTimeBBWACC regenerates Figure 1(a): batch makespans
// of the real-world sets under the BER-7 setting.
func BenchmarkFig1RunningTimeBBWACC(b *testing.B) {
	b.ReportAllocs()
	runningTimeBench(b, coefficient.ScenarioBER7())
}

// BenchmarkFig1RunningTimeSynthetic regenerates Figure 1(b): synthetic
// batch makespans under BER-7.
func BenchmarkFig1RunningTimeSynthetic(b *testing.B) {
	b.ReportAllocs()
	var co, fs time.Duration
	for i := 0; i < b.N; i++ {
		rows, err := coefficient.RunningTimeExperiment(coefficient.RunningTimeOptions{
			Scenario:        coefficient.ScenarioBER7(),
			Seed:            1,
			Quick:           true,
			Slots:           []int{80},
			MessageCounts:   []int{5},
			SyntheticCounts: []int{40},
		})
		if err != nil {
			b.Fatal(err)
		}
		var foundCo, foundFS bool
		for _, r := range rows {
			if r.Workload != "synthetic" {
				continue
			}
			if r.Scheduler == "CoEfficient" {
				co, foundCo = r.RunningTime, true
			} else {
				fs, foundFS = r.RunningTime, true
			}
		}
		if !foundCo || !foundFS {
			b.Fatalf("missing synthetic rows: CoEfficient=%v FSPEC=%v", foundCo, foundFS)
		}
	}
	b.ReportMetric(co.Seconds(), "coeff-makespan-s")
	b.ReportMetric(fs.Seconds(), "fspec-makespan-s")
}

// BenchmarkFig2RunningTime regenerates Figure 2: the BER-9 (strict goal)
// running times, which exceed their Figure 1 counterparts.
func BenchmarkFig2RunningTime(b *testing.B) {
	b.ReportAllocs()
	runningTimeBench(b, coefficient.ScenarioBER9())
}

// BenchmarkFig3BandwidthUtilization regenerates Figure 3: bandwidth
// utilization across dynamic segment sizes.
func BenchmarkFig3BandwidthUtilization(b *testing.B) {
	b.ReportAllocs()
	var coEff, fsEff float64
	for i := 0; i < b.N; i++ {
		rows, err := coefficient.UtilizationExperiment(coefficient.UtilizationOptions{
			Seed: 1, Quick: true, Minislots: []int{50},
		})
		if err != nil {
			b.Fatal(err)
		}
		var foundCo, foundFS bool
		for _, r := range rows {
			if r.Scheduler == "CoEfficient" {
				coEff, foundCo = r.Efficiency, true
			} else {
				fsEff, foundFS = r.Efficiency, true
			}
		}
		if !foundCo || !foundFS {
			b.Fatalf("missing utilization rows: CoEfficient=%v FSPEC=%v", foundCo, foundFS)
		}
	}
	b.ReportMetric(coEff, "coeff-efficiency")
	b.ReportMetric(fsEff, "fspec-efficiency")
	b.ReportMetric(coEff-fsEff, "gap")
}

func latencyBench(b *testing.B, workloadName string, segment coefficient.SegmentKind) {
	b.Helper()
	b.ReportAllocs()
	var co, fs time.Duration
	for i := 0; i < b.N; i++ {
		rows, err := coefficient.LatencyExperiment(coefficient.LatencyOptions{
			Seed: 1, Quick: true,
			Minislots: []int{50},
			Workloads: []string{workloadName},
			Scenarios: []coefficient.ExperimentScenario{coefficient.ScenarioBER7()},
		})
		if err != nil {
			b.Fatal(err)
		}
		var foundCo, foundFS bool
		for _, r := range rows {
			if r.Segment != segment {
				continue
			}
			if r.Scheduler == "CoEfficient" {
				co, foundCo = r.Mean, true
			} else {
				fs, foundFS = r.Mean, true
			}
		}
		if !foundCo || !foundFS {
			b.Fatalf("missing %s %v rows: CoEfficient=%v FSPEC=%v",
				workloadName, segment, foundCo, foundFS)
		}
	}
	b.ReportMetric(float64(co.Microseconds()), "coeff-latency-us")
	b.ReportMetric(float64(fs.Microseconds()), "fspec-latency-us")
}

// BenchmarkFig4StaticLatencySynthetic regenerates Figure 4(a).
func BenchmarkFig4StaticLatencySynthetic(b *testing.B) {
	b.ReportAllocs()
	latencyBench(b, "synthetic", coefficient.StaticSegment)
}

// BenchmarkFig4StaticLatencyBBWACC regenerates Figure 4(b).
func BenchmarkFig4StaticLatencyBBWACC(b *testing.B) {
	b.ReportAllocs()
	latencyBench(b, "BBW", coefficient.StaticSegment)
}

// BenchmarkFig4DynamicLatencySynthetic regenerates Figure 4(c).
func BenchmarkFig4DynamicLatencySynthetic(b *testing.B) {
	b.ReportAllocs()
	latencyBench(b, "synthetic", coefficient.DynamicSegment)
}

// BenchmarkFig4DynamicLatencyBBWACC regenerates Figure 4(d).
func BenchmarkFig4DynamicLatencyBBWACC(b *testing.B) {
	b.ReportAllocs()
	latencyBench(b, "BBW", coefficient.DynamicSegment)
}

// BenchmarkFig5DeadlineMissRatio regenerates Figure 5.
func BenchmarkFig5DeadlineMissRatio(b *testing.B) {
	b.ReportAllocs()
	var co, fs float64
	for i := 0; i < b.N; i++ {
		rows, err := coefficient.MissRatioExperiment(coefficient.MissOptions{
			Seed: 1, Quick: true, Minislots: []int{50},
			Scenarios: []coefficient.ExperimentScenario{coefficient.ScenarioBER7()},
		})
		if err != nil {
			b.Fatal(err)
		}
		var foundCo, foundFS bool
		for _, r := range rows {
			if r.Scheduler == "CoEfficient" {
				co, foundCo = r.MissRatio, true
			} else {
				fs, foundFS = r.MissRatio, true
			}
		}
		if !foundCo || !foundFS {
			b.Fatalf("missing miss-ratio rows: CoEfficient=%v FSPEC=%v", foundCo, foundFS)
		}
	}
	b.ReportMetric(co, "coeff-miss-ratio")
	b.ReportMetric(fs, "fspec-miss-ratio")
}

// --- Ablations (DESIGN.md §4) ---

func ablationRun(b *testing.B, opts coefficient.SchedulerOptions) coefficient.Report {
	b.Helper()
	sae, err := coefficient.SAEAperiodic(coefficient.SAEAperiodicOptions{FirstID: 31, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	set, err := coefficient.MergeWorkloads("ablation", coefficient.BBW(), sae)
	if err != nil {
		b.Fatal(err)
	}
	setup, err := coefficient.DeriveLatencySetup(set, 30, 50)
	if err != nil {
		b.Fatal(err)
	}
	injA, err := coefficient.NewBERInjector(opts.BER, 11)
	if err != nil {
		b.Fatal(err)
	}
	injB, err := coefficient.NewBERInjector(opts.BER, 12)
	if err != nil {
		b.Fatal(err)
	}
	res, err := coefficient.Simulate(coefficient.SimOptions{
		Config:    setup.Config,
		Workload:  set,
		BitRate:   setup.BitRate,
		InjectorA: injA,
		InjectorB: injB,
		Seed:      1,
		Mode:      coefficient.Streaming,
		Duration:  300 * time.Millisecond,
	}, coefficient.NewCoEfficient(opts))
	if err != nil {
		b.Fatal(err)
	}
	return res.Report
}

// BenchmarkAblationSelectiveSlack compares selective slack stealing against
// head-of-line blocking on non-fitting frames.
func BenchmarkAblationSelectiveSlack(b *testing.B) {
	b.ReportAllocs()
	base := coefficient.SchedulerOptions{BER: 1e-6, Goal: 0.999}
	var sel, blk float64
	for i := 0; i < b.N; i++ {
		sel = ablationRun(b, base).OverallMissRatio()
		noSel := base
		noSel.NoSelectiveSlack = true
		blk = ablationRun(b, noSel).OverallMissRatio()
	}
	b.ReportMetric(sel, "selective-miss")
	b.ReportMetric(blk, "blocking-miss")
}

// BenchmarkAblationDifferentiatedRetx compares the differentiated plan
// against a uniform one at the same goal.
func BenchmarkAblationDifferentiatedRetx(b *testing.B) {
	b.ReportAllocs()
	base := coefficient.SchedulerOptions{BER: 1e-6, Goal: 0.999}
	var diff, uni coefficient.Report
	for i := 0; i < b.N; i++ {
		diff = ablationRun(b, base)
		u := base
		u.Uniform = true
		uni = ablationRun(b, u)
	}
	b.ReportMetric(diff.RawUtilization, "differentiated-raw-bw")
	b.ReportMetric(uni.RawUtilization, "uniform-raw-bw")
}

// BenchmarkAblationDualChannel compares dual-channel cooperative slack
// against channel-A-only operation.
func BenchmarkAblationDualChannel(b *testing.B) {
	b.ReportAllocs()
	base := coefficient.SchedulerOptions{BER: 1e-6, Goal: 0.999}
	var dual, single float64
	for i := 0; i < b.N; i++ {
		dual = float64(ablationRun(b, base).MeanLatency[coefficient.DynamicSegment].Microseconds())
		s := base
		s.SingleChannel = true
		single = float64(ablationRun(b, s).MeanLatency[coefficient.DynamicSegment].Microseconds())
	}
	b.ReportMetric(dual, "dual-dyn-latency-us")
	b.ReportMetric(single, "single-dyn-latency-us")
}

// --- Microbenchmarks of the core machinery ---

// BenchmarkPlanDifferentiated measures the greedy reliability planner.
func BenchmarkPlanDifferentiated(b *testing.B) {
	b.ReportAllocs()
	set := coefficient.BBW()
	msgs := make([]coefficient.ReliabilityMessage, len(set.Messages))
	for i, m := range set.Messages {
		msgs[i] = coefficient.ReliabilityMessage{Name: m.Name, Bits: m.Bits, Period: m.Period}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coefficient.PlanDifferentiated(msgs, 1e-6, time.Second, 0.99999, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateCycle measures raw simulator throughput (fault-free
// FSPEC on BBW, cycles per second).
func BenchmarkSimulateCycle(b *testing.B) {
	b.ReportAllocs()
	set := bbwSetForBench(b)
	setup, err := coefficient.DeriveLatencySetup(set, 30, 50)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := coefficient.Simulate(coefficient.SimOptions{
			Config:   setup.Config,
			Workload: set,
			BitRate:  setup.BitRate,
			Seed:     1,
			Mode:     coefficient.Streaming,
			Duration: 100 * time.Millisecond,
		}, coefficient.NewFSPEC(coefficient.FSPECOptions{}))
		if err != nil {
			b.Fatal(err)
		}
	}
}

func bbwSetForBench(b *testing.B) coefficient.MessageSet {
	b.Helper()
	sae, err := coefficient.SAEAperiodic(coefficient.SAEAperiodicOptions{FirstID: 31, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	set, err := coefficient.MergeWorkloads("bench", coefficient.BBW(), sae)
	if err != nil {
		b.Fatal(err)
	}
	return set
}

// BenchmarkFrameEncodeDecode measures the wire codec round trip.
func BenchmarkFrameEncodeDecode(b *testing.B) {
	b.ReportAllocs()
	fr := &frame.Frame{
		ID:         42,
		CycleCount: 17,
		Payload:    make([]byte, 64),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err := fr.Encode(frame.ChannelA)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := frame.Decode(buf, frame.ChannelA); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPackSignals measures first-fit-decreasing packing of 2500
// signals.
func BenchmarkPackSignals(b *testing.B) {
	b.ReportAllocs()
	set, err := workload.SyntheticSignals(workload.SignalLevelOptions{Signals: 2500, Nodes: 70, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	_ = set
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.SyntheticSignals(workload.SignalLevelOptions{Signals: 2500, Nodes: 70, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleBuild measures static schedule table construction.
func BenchmarkScheduleBuild(b *testing.B) {
	b.ReportAllocs()
	set := coefficient.BBW()
	cfg := timebase.LatencyConfig(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Build(set, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleSynthesis measures slot-multiplexed schedule synthesis
// on the BBW workload.
func BenchmarkScheduleSynthesis(b *testing.B) {
	b.ReportAllocs()
	set := coefficient.BBW()
	cfg := timebase.LatencyConfig(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Synthesize(set, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
