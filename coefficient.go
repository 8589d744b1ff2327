// Package coefficient is the public API of the CoEfficient library: a
// macrotick-accurate FlexRay cluster simulator together with the
// CoEfficient scheduler of Hua, Rao, Liu and Feng, "Cooperative and
// Efficient Real-time Scheduling for Automotive Communications" (IEEE
// ICDCS 2014), and the standard-behaviour FSPEC baseline it is evaluated
// against.
//
// The package re-exports the stable surface of the internal packages via
// type aliases, so downstream users never import anything under internal/.
//
// A minimal end-to-end run:
//
//	set, _ := coefficient.MergeWorkloads("demo", coefficient.BBW(), sae)
//	setup, _ := coefficient.DeriveLatencySetup(set, 30, 50)
//	res, _ := coefficient.Simulate(coefficient.SimOptions{
//		Config:   setup.Config,
//		Workload: set,
//		BitRate:  setup.BitRate,
//		Mode:     coefficient.Streaming,
//		Duration: 2 * time.Second,
//	}, coefficient.NewCoEfficient(coefficient.SchedulerOptions{BER: 1e-7}))
//	fmt.Println(res.Report.MeanLatency[coefficient.StaticSegment])
//
// See the examples/ directory for complete programs and the internal
// package documentation for the full design.
package coefficient

import (
	"time"

	"github.com/flexray-go/coefficient/internal/analysis"
	"github.com/flexray-go/coefficient/internal/core"
	"github.com/flexray-go/coefficient/internal/experiment"
	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/fspec"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/reliability"
	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/scenario"
	"github.com/flexray-go/coefficient/internal/schedule"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/topology"
	"github.com/flexray-go/coefficient/internal/trace"
	"github.com/flexray-go/coefficient/internal/workload"
)

// Cluster timing.
type (
	// Config holds the FlexRay global timing parameters (gdCycle,
	// gdStaticSlot, gNumberOfMinislots, ...).
	Config = timebase.Config
	// Macrotick is the protocol time quantum.
	Macrotick = timebase.Macrotick
)

// Workload modelling.
type (
	// Message is one FlexRay message (static or dynamic).
	Message = signal.Message
	// MessageSet is a validated workload.
	MessageSet = signal.Set
	// Signal is an application-level signal packable into messages.
	Signal = signal.Signal
	// PackOptions controls signal-to-frame packing.
	PackOptions = signal.PackOptions
	// SyntheticOptions parameterizes the synthetic workload generator.
	SyntheticOptions = workload.SyntheticOptions
	// SAEAperiodicOptions parameterizes the SAE-derived dynamic workload.
	SAEAperiodicOptions = workload.SAEAperiodicOptions
	// SignalLevelOptions parameterizes the signal-level generator whose
	// output is packed into frames.
	SignalLevelOptions = workload.SignalLevelOptions
)

// Message kinds.
const (
	// PeriodicMessage marks time-triggered (static segment) traffic.
	PeriodicMessage = signal.Periodic
	// AperiodicMessage marks event-triggered (dynamic segment) traffic.
	AperiodicMessage = signal.Aperiodic
)

// Simulation.
type (
	// SimOptions configures one simulation run.
	SimOptions = sim.Options
	// TimingOptions gives every node a drifting local clock kept in step
	// by the FTM offset/rate correction loop (SimOptions.Timing).  A
	// scenario that scripts timing faults turns the layer on by itself,
	// with SyncEnabled false.
	TimingOptions = sim.TimingOptions
	// SimResult is the outcome of a run.
	SimResult = sim.Result
	// Scheduler is the policy interface both schedulers implement.
	Scheduler = sim.Scheduler
	// Report is a metrics summary.
	Report = metrics.Report
	// SegmentKind distinguishes static from dynamic traffic in reports.
	SegmentKind = metrics.SegmentKind
	// Cluster is a FlexRay cluster topology.
	Cluster = topology.Cluster
	// TraceRecorder captures per-frame bus events.
	TraceRecorder = trace.Recorder
	// TraceSink receives bus events; set SimOptions.Sink to observe a
	// run without retaining every event.
	TraceSink = trace.Sink
	// TraceEvent is one recorded bus event.
	TraceEvent = trace.Event
	// TraceEventKind classifies a bus event.
	TraceEventKind = trace.EventKind
	// CountingTraceSink tallies events per kind without retaining or
	// allocating.
	CountingTraceSink = trace.CountingSink
	// NullTraceSink discards every event.
	NullTraceSink = trace.NullSink
	// FaultInjector decides which transmissions are corrupted.
	FaultInjector = fault.Injector
	// FaultStats summarizes an injector's history.
	FaultStats = fault.Stats
)

// Simulation run modes and segment kinds.
const (
	// Streaming simulates a fixed horizon with hard deadlines.
	Streaming = sim.Streaming
	// Batch drains a fixed set of instances and reports the makespan.
	Batch = sim.Batch
	// StaticSegment selects static-segment metrics in a Report.
	StaticSegment = metrics.Static
	// DynamicSegment selects dynamic-segment metrics in a Report.
	DynamicSegment = metrics.Dynamic
)

// Schedulers.
type (
	// SchedulerOptions configures the CoEfficient scheduler.
	SchedulerOptions = core.Options
	// FSPECOptions configures the baseline.
	FSPECOptions = fspec.Options
	// CoEfficientScheduler is the paper's scheduler.
	CoEfficientScheduler = core.Scheduler
	// FSPECScheduler is the baseline.
	FSPECScheduler = fspec.Scheduler
)

// Reliability planning.
type (
	// ReliabilityMessage describes one message to the planner.
	ReliabilityMessage = reliability.Message
	// ReliabilityPlan is a per-message retransmission budget.
	ReliabilityPlan = reliability.Plan
	// SIL is an IEC 61508 safety integrity level.
	SIL = reliability.SIL
)

// IEC 61508 safety integrity levels.
const (
	SIL1 = reliability.SIL1
	SIL2 = reliability.SIL2
	SIL3 = reliability.SIL3
	SIL4 = reliability.SIL4
)

// Experiments (paper Figures 1-5).
type (
	// ExperimentScenario binds a paper label to a reliability goal.
	ExperimentScenario = experiment.Scenario
	// ExperimentSetup is a derived cycle configuration plus bus speed.
	ExperimentSetup = experiment.Setup
	// ExperimentTable is an aligned text table.
	ExperimentTable = experiment.Table
	// RunningTimeOptions, UtilizationOptions, LatencyOptions and
	// MissOptions configure the per-figure harnesses.
	RunningTimeOptions  = experiment.RunningTimeOptions
	UtilizationOptions  = experiment.UtilizationOptions
	LatencyOptions      = experiment.LatencyOptions
	MissOptions         = experiment.MissOptions
	FrameLatencyOptions = experiment.FrameLatencyOptions
	AblationOptions     = experiment.AblationOptions
	SynthesisOptions    = experiment.SynthesisOptions
	// RunningTimeRow, UtilizationRow, LatencyRow and MissRow are the
	// per-figure result rows.
	RunningTimeRow  = experiment.RunningTimeRow
	UtilizationRow  = experiment.UtilizationRow
	LatencyRow      = experiment.LatencyRow
	MissRow         = experiment.MissRow
	FrameLatencyRow = experiment.FrameLatencyRow
	AblationRow     = experiment.AblationRow
	SynthesisRow    = experiment.SynthesisRow
)

// Static scheduling.
type (
	// ScheduleTable is a validated static schedule table (64-cycle
	// multiplexing window).
	ScheduleTable = schedule.Table
	// ScheduleEntry is one schedule-table row.
	ScheduleEntry = schedule.Entry
	// ScheduleSynthesis is a slot-multiplexed static schedule.
	ScheduleSynthesis = schedule.Synthesis
	// ScheduleAssignment binds one message to a synthesized slot cadence.
	ScheduleAssignment = schedule.Assignment
)

// Timing analysis.
type (
	// WCRTResult is one message's worst-case response time.
	WCRTResult = analysis.Result
)

// StaticWCRT computes the exact worst-case response time of a static
// message under its schedule table.
func StaticWCRT(tbl *ScheduleTable, frameID int) (WCRTResult, error) {
	return analysis.StaticWCRT(tbl, frameID)
}

// DynamicWCRT computes the FTDMA worst-case response time of a dynamic
// message.
func DynamicWCRT(set MessageSet, cfg Config, bitRate int64, frameID int) (WCRTResult, error) {
	return analysis.DynamicWCRT(set, cfg, bitRate, frameID)
}

// AnalyzeWCRT computes worst-case response times for every message of the
// set (a WCRT of -1 marks an unbounded dynamic frame).
func AnalyzeWCRT(set MessageSet, cfg Config, bitRate int64) ([]WCRTResult, error) {
	return analysis.All(set, cfg, bitRate)
}

// BuildSchedule derives the static schedule table (base cycle and
// repetition per message) for the workload under the configuration, with
// per-message feasibility checks.
func BuildSchedule(set MessageSet, cfg Config) (*ScheduleTable, error) {
	return schedule.Build(set, cfg)
}

// SynthesizeSchedule builds a minimal-width static schedule by slot
// multiplexing (first-fit decreasing on slot load).
func SynthesizeSchedule(set MessageSet, cfg Config) (*ScheduleSynthesis, error) {
	return schedule.Synthesize(set, cfg)
}

// MinScheduleSlots returns the theoretical lower bound on static slots for
// the workload under the configuration.
func MinScheduleSlots(set MessageSet, cfg Config) (int, error) {
	return schedule.MinCycleLoad(set, cfg)
}

// NewCoEfficient returns the paper's scheduler.
func NewCoEfficient(opts SchedulerOptions) *CoEfficientScheduler { return core.New(opts) }

// NewFSPEC returns the baseline scheduler.
func NewFSPEC(opts FSPECOptions) *FSPECScheduler { return fspec.New(opts) }

// Simulate runs one simulation.
func Simulate(opts SimOptions, sched Scheduler) (SimResult, error) { return sim.Run(opts, sched) }

// NewTraceRecorder returns an enabled bus trace recorder.
func NewTraceRecorder() *TraceRecorder { return trace.New() }

// NewBERInjector returns a deterministic transient-fault injector for the
// given bit error rate and seed.
func NewBERInjector(ber float64, seed uint64) (FaultInjector, error) {
	return fault.NewBERInjector(ber, seed)
}

// DeriveSeed maps a base seed and a coordinate path to an independent
// stream seed through the library's splitmix64 derivation.  Use it
// wherever several seeded components (fault injectors, synthetic
// workloads, replicas) descend from one user-supplied seed: offset
// arithmetic like seed+1 gives adjacent bases overlapping streams,
// while DeriveSeed(seed, k) decorrelates every (seed, k) pair.
func DeriveSeed(base uint64, coords ...uint64) uint64 {
	return runner.CellSeed(base, coords...)
}

// DualChannelBus returns the paper's testbed topology: n nodes attached to
// both channels of a passive dual bus.
func DualChannelBus(n int) Cluster { return topology.DualChannelBus(n) }

// BBW returns the Brake-By-Wire message set (paper Table II).
func BBW() MessageSet { return workload.BBW() }

// ACC returns the Adaptive Cruise Controller message set (paper Table III).
func ACC() MessageSet { return workload.ACC() }

// Synthetic generates a reproducible random periodic message set in the
// paper's parameter ranges.
func Synthetic(opts SyntheticOptions) (MessageSet, error) { return workload.Synthetic(opts) }

// SAEAperiodic returns the paper's SAE-derived dynamic message set.
func SAEAperiodic(opts SAEAperiodicOptions) (MessageSet, error) {
	return workload.SAEAperiodic(opts)
}

// SyntheticSignals generates raw periodic signals across the ECUs and
// packs them into a validated static message set.
func SyntheticSignals(opts SignalLevelOptions) (MessageSet, error) {
	return workload.SyntheticSignals(opts)
}

// MergeWorkloads combines message sets, failing on frame ID collisions.
func MergeWorkloads(name string, sets ...MessageSet) (MessageSet, error) {
	return workload.Merge(name, sets...)
}

// PackSignals groups signals into messages with first-fit-decreasing
// packing.
func PackSignals(signals []Signal, opts PackOptions) ([]Message, error) {
	return signal.Pack(signals, opts)
}

// PlanDifferentiated computes the paper's differentiated retransmission
// budgets (greedy, Theorem 1).
func PlanDifferentiated(msgs []ReliabilityMessage, ber float64, unit time.Duration, goal float64, maxRetx int) (ReliabilityPlan, error) {
	return reliability.PlanDifferentiated(msgs, ber, unit, goal, maxRetx)
}

// PlanUniform computes the smallest uniform retransmission budget meeting
// the goal.
func PlanUniform(msgs []ReliabilityMessage, ber float64, unit time.Duration, goal float64, maxRetx int) (ReliabilityPlan, error) {
	return reliability.PlanUniform(msgs, ber, unit, goal, maxRetx)
}

// SuccessProbability evaluates the paper's Theorem 1.
func SuccessProbability(msgs []ReliabilityMessage, ber float64, unit time.Duration, retx []int) (float64, error) {
	return reliability.SuccessProbability(msgs, ber, unit, retx)
}

// FrameFailureProb returns 1 − (1−BER)^bits, the per-frame transient fault
// probability.
func FrameFailureProb(ber float64, bits int) (float64, error) {
	return fault.FrameFailureProb(ber, bits)
}

// Fault scenarios and graceful degradation.
type (
	// FaultScenario is a deterministic scriptable fault timeline: BER
	// steps/ramps and burst episodes per channel, channel blackouts, and
	// node crash/recovery events.
	FaultScenario = scenario.Scenario
	// ScenarioChannel is the fault timeline of one channel.
	ScenarioChannel = scenario.Channel
	// ScenarioStep, ScenarioRamp, ScenarioBurst and ScenarioWindow are the
	// per-channel timeline elements.
	ScenarioStep   = scenario.Step
	ScenarioRamp   = scenario.Ramp
	ScenarioBurst  = scenario.Burst
	ScenarioWindow = scenario.Window
	// ScenarioNodeEvent is one node crash (and optional recovery).
	ScenarioNodeEvent = scenario.NodeEvent
	// ScenarioDuration unmarshals from duration strings or nanoseconds.
	ScenarioDuration = scenario.Duration
	// AdaptiveGauges reports the controller's activity in a Report.
	AdaptiveGauges = metrics.AdaptiveGauges
	// DegradationOptions configures the graceful-degradation experiment.
	DegradationOptions = experiment.DegradationOptions
	// DegradationRow is one scheduler variant's degradation outcome.
	DegradationRow = experiment.DegradationRow
)

// ParseScenario decodes and validates a fault-scenario document.
func ParseScenario(data []byte) (*FaultScenario, error) { return scenario.Parse(data) }

// LoadScenario reads and parses a fault-scenario file.
func LoadScenario(path string) (*FaultScenario, error) { return scenario.Load(path) }

// DefaultDegradationScenario builds the stock BER-step-plus-blackout
// timeline over the given horizon.
func DefaultDegradationScenario(horizon time.Duration) *FaultScenario {
	return experiment.DefaultDegradationScenario(horizon)
}

// DegradationExperiment compares FSPEC, static CoEfficient and adaptive
// CoEfficient under a fault scenario.
func DegradationExperiment(opts DegradationOptions) ([]DegradationRow, error) {
	return experiment.Degradation(opts)
}

// DegradationTable renders degradation rows as an aligned text table.
func DegradationTable(rows []DegradationRow) ExperimentTable {
	return experiment.DegradationTable(rows)
}

// ScenarioBER7 and ScenarioBER9 return the paper's two evaluation settings.
func ScenarioBER7() ExperimentScenario { return experiment.BER7() }

// ScenarioBER9 returns the paper's strict reliability setting.
func ScenarioBER9() ExperimentScenario { return experiment.BER9() }

// DeriveRunningTimeSetup builds the Figures 1-2 cycle configuration (5 ms
// cycle, 3 ms static budget) for the workload.
func DeriveRunningTimeSetup(set MessageSet, staticSlots int) (ExperimentSetup, error) {
	return experiment.RunningTimeSetup(set, staticSlots)
}

// DeriveLatencySetup builds the Figures 3-5 cycle configuration (1 ms
// cycle, 0.75 ms static segment) for the workload.
func DeriveLatencySetup(set MessageSet, staticSlots, minislots int) (ExperimentSetup, error) {
	return experiment.LatencySetup(set, staticSlots, minislots)
}

// RunningTimeExperiment reproduces Figures 1 (BER-7) and 2 (BER-9).
func RunningTimeExperiment(opts RunningTimeOptions) ([]RunningTimeRow, error) {
	return experiment.RunningTime(opts)
}

// UtilizationExperiment reproduces Figure 3.
func UtilizationExperiment(opts UtilizationOptions) ([]UtilizationRow, error) {
	return experiment.Utilization(opts)
}

// LatencyExperiment reproduces Figure 4.
func LatencyExperiment(opts LatencyOptions) ([]LatencyRow, error) {
	return experiment.Latency(opts)
}

// MissRatioExperiment reproduces Figure 5.
func MissRatioExperiment(opts MissOptions) ([]MissRow, error) {
	return experiment.MissRatio(opts)
}

// FrameLatencyExperiment reproduces Figure 4(a)'s per-frame-ID latency
// series.
func FrameLatencyExperiment(opts FrameLatencyOptions) ([]FrameLatencyRow, error) {
	return experiment.FrameLatency(opts)
}

// AblationExperiment sweeps the DESIGN.md design-choice ablations.
func AblationExperiment(opts AblationOptions) ([]AblationRow, error) {
	return experiment.Ablations(opts)
}

// SynthesisExperiment compares naive and slot-multiplexed static schedule
// widths.
func SynthesisExperiment(opts SynthesisOptions) ([]SynthesisRow, error) {
	return experiment.Synthesis(opts)
}
