package experiment

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/workload"
)

// latencyStaticSlots is the static slot count of the 1 ms cycle used by
// Figures 3 and 5 and the real-world rows of Figure 4 (0.75 ms static at 25
// macroticks per slot).
const latencyStaticSlots = 30

// syntheticStaticSlots is the slot count for Figure 4's synthetic rows: the
// paper plots static frame IDs 1..80.
const syntheticStaticSlots = 80

// latencyMinislots is the dynamic segment size of the single-setup
// harnesses on the 1 ms cycle: Figure 4(a), the ablations, the WCRT
// analysis and the timing-fault comparison.
const latencyMinislots = 50

// latencyWorkload assembles a streaming workload: the given static set plus
// the SAE aperiodic set with frame IDs starting just above the static slot
// range, so the FTDMA slot counter can actually reach them (the paper's IDs
// 81-110 sit above its 80 static slots for the same reason).
func latencyWorkload(static signal.Set, staticSlots int, seed uint64) (signal.Set, error) {
	sae, err := workload.SAEAperiodic(workload.SAEAperiodicOptions{
		FirstID: staticSlots + 1,
		Count:   30,
		Seed:    seed,
	})
	if err != nil {
		return signal.Set{}, err
	}
	return workload.Merge(static.Name+"+sae", static, sae)
}

// latencySetups memoizes LatencySetup per minislot coordinate: one
// feasibility analysis per dynamic segment size, shared read-only by
// every sweep cell at that coordinate.
func latencySetups(set signal.Set, staticSlots int, minislots []int) ([]Setup, error) {
	setups := make([]Setup, len(minislots))
	for j, ms := range minislots {
		setup, err := LatencySetup(set, staticSlots, ms)
		if err != nil {
			return nil, err
		}
		setups[j] = setup
	}
	return setups, nil
}

// runStreaming runs one streaming simulation.
func runStreaming(set signal.Set, setup Setup, sc Scenario, sched sim.Scheduler, seed uint64, quick bool) (sim.Result, error) {
	injA, injB, err := injectors(sc, seed)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Run(sim.Options{
		Config:    setup.Config,
		Workload:  set,
		BitRate:   setup.BitRate,
		InjectorA: injA,
		InjectorB: injB,
		Seed:      seed,
		Mode:      sim.Streaming,
		Duration:  streamDuration(quick),
	}, sched)
}

// UtilizationRow is one point of Figure 3.
type UtilizationRow struct {
	// Minislots is the dynamic segment size.
	Minislots int
	// Scheduler is the policy name.
	Scheduler string
	// Efficiency is useful wire time over all wire time — the paper's
	// "ratio of the bandwidth that is actually used to the whole
	// bandwidth" (redundant copies and faulted attempts are not "actually
	// used").
	Efficiency float64
	// Useful and Raw are the utilization components over total channel
	// capacity.
	Useful, Raw float64
}

// UtilizationOptions configures the Figure 3 harness (BER-7 setting).
type UtilizationOptions struct {
	// Seed drives arrivals and faults.
	Seed uint64
	// Quick shrinks the horizon.
	Quick bool
	// Minislots lists the swept dynamic segment sizes (default 25, 50,
	// 75, 100).
	Minislots []int
	// Parallel is the sweep worker count: 0 uses every core, 1 runs
	// serially.  The rows are identical for every value.
	Parallel int
	// Ctx optionally bounds the sweep: every cell checks it before
	// starting, so a deadline or cancellation stops the run at the next
	// cell boundary.  Nil means run to completion.
	Ctx context.Context
}

func (o *UtilizationOptions) fill() {
	if len(o.Minislots) == 0 {
		o.Minislots = []int{25, 50, 75, 100}
	}
}

// Utilization reproduces Figure 3: bandwidth utilization of both schedulers
// as the dynamic segment grows from 25 to 100 minislots, on the BBW + SAE
// workload.
func Utilization(opts UtilizationOptions) ([]UtilizationRow, error) {
	opts.fill()
	set, err := latencyWorkload(workload.BBW(), latencyStaticSlots, opts.Seed)
	if err != nil {
		return nil, err
	}
	// One setup per minislot coordinate, derived up front: LatencySetup
	// runs a feasibility analysis of the whole static schedule, so
	// rebuilding it inside every (minislots, scheduler) cell repeated
	// that work nSched times per coordinate.
	setups, err := latencySetups(set, latencyStaticSlots, opts.Minislots)
	if err != nil {
		return nil, err
	}
	// Cell = (minislots, scheduler); the shared set and setups are
	// read-only, every cell derives its own scheduler and injectors.
	const nSched = 2
	cells := len(opts.Minislots) * nSched
	sc := BER7()
	return runner.MapCtx(opts.Ctx, opts.Parallel, cells, func(i int) (UtilizationRow, error) {
		ms := opts.Minislots[i/nSched]
		setup := setups[i/nSched]
		sched := schedulers(set, sc)[i%nSched]
		res, err := runStreaming(set, setup, sc, sched, opts.Seed, opts.Quick)
		if err != nil {
			return UtilizationRow{}, fmt.Errorf("fig3 %d minislots: %w", ms, err)
		}
		eff := 0.0
		if res.Report.RawUtilization > 0 {
			eff = res.Report.BandwidthUtilization / res.Report.RawUtilization
		}
		return UtilizationRow{
			Minislots:  ms,
			Scheduler:  res.Scheduler,
			Efficiency: eff,
			Useful:     res.Report.BandwidthUtilization,
			Raw:        res.Report.RawUtilization,
		}, nil
	})
}

// UtilizationTable renders Figure 3 rows.
func UtilizationTable(rows []UtilizationRow) Table {
	t := Table{
		Title:  "Figure 3: bandwidth utilization vs minislots",
		Header: []string{"minislots", "scheduler", "efficiency", "useful", "raw"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Minislots),
			r.Scheduler,
			fmt.Sprintf("%.3f", r.Efficiency),
			fmt.Sprintf("%.4f", r.Useful),
			fmt.Sprintf("%.4f", r.Raw),
		})
	}
	return t
}

// LatencyRow is one point of Figure 4.
type LatencyRow struct {
	// Workload is "synthetic", "BBW" or "ACC".
	Workload string
	// Segment says whether the row covers static or dynamic messages.
	Segment metrics.SegmentKind
	// Minislots is the dynamic segment size (50 or 100).
	Minislots int
	// Scenario is the reliability setting label.
	Scenario string
	// Scheduler is the policy name.
	Scheduler string
	// Mean is the average delivery latency.
	Mean time.Duration
	// P99 is the tail latency.
	P99 time.Duration
}

// LatencyOptions configures the Figure 4 harness.
type LatencyOptions struct {
	// Scenarios defaults to {BER7, BER9}.
	Scenarios []Scenario
	// Seed drives arrivals and faults.
	Seed uint64
	// Quick shrinks the horizon.
	Quick bool
	// Minislots defaults to {50, 100}.
	Minislots []int
	// Workloads defaults to {"synthetic", "BBW", "ACC"}; the synthetic
	// static set has 80 messages, the paper's frame IDs 1..80.
	Workloads []string
	// Parallel is the sweep worker count: 0 uses every core, 1 runs
	// serially.  The rows are identical for every value.
	Parallel int
	// Ctx optionally bounds the sweep: every cell checks it before
	// starting, so a deadline or cancellation stops the run at the next
	// cell boundary.  Nil means run to completion.
	Ctx context.Context
}

func (o *LatencyOptions) fill() {
	if len(o.Scenarios) == 0 {
		o.Scenarios = []Scenario{BER7(), BER9()}
	}
	if len(o.Minislots) == 0 {
		o.Minislots = []int{50, 100}
	}
	if len(o.Workloads) == 0 {
		o.Workloads = []string{"synthetic", "BBW", "ACC"}
	}
}

// latencyCell is one independent point of the Figure 4 sweep.
type latencyCell struct {
	workload string
	ms       int
	sc       Scenario
	schedIdx int
}

// Latency reproduces Figure 4: average transmission latency of static and
// dynamic segments for the synthetic, BBW and ACC workloads at 50 and 100
// minislots under both reliability settings.  Cells run on Parallel
// workers, each rebuilding its workload and setup from the options alone.
func Latency(opts LatencyOptions) ([]LatencyRow, error) {
	opts.fill()
	// Workload sets and setups are functions of (workload, minislots)
	// alone, so they are built once up front — per coordinate, not per
	// cell — and shared read-only by the sweep.
	type latencyWork struct {
		set    signal.Set
		setups []Setup // parallel to opts.Minislots
	}
	works := make(map[string]latencyWork, len(opts.Workloads))
	msIdx := make(map[int]int, len(opts.Minislots))
	for j, ms := range opts.Minislots {
		msIdx[ms] = j
	}
	for _, wl := range opts.Workloads {
		staticSet, staticSlots, err := latencyStaticSet(wl, opts.Seed, syntheticStaticSlots)
		if err != nil {
			return nil, err
		}
		set, err := latencyWorkload(staticSet, staticSlots, opts.Seed)
		if err != nil {
			return nil, err
		}
		setups, err := latencySetups(set, staticSlots, opts.Minislots)
		if err != nil {
			return nil, err
		}
		works[wl] = latencyWork{set: set, setups: setups}
	}
	var cells []latencyCell
	for _, wl := range opts.Workloads {
		for _, ms := range opts.Minislots {
			for _, sc := range opts.Scenarios {
				for schedIdx := 0; schedIdx < 2; schedIdx++ {
					cells = append(cells, latencyCell{workload: wl, ms: ms, sc: sc, schedIdx: schedIdx})
				}
			}
		}
	}
	return runner.FlatMapCtx(opts.Ctx, opts.Parallel, len(cells), func(i int) ([]LatencyRow, error) {
		c := cells[i]
		w := works[c.workload]
		set := w.set
		setup := w.setups[msIdx[c.ms]]
		sched := schedulers(set, c.sc)[c.schedIdx]
		res, err := runStreaming(set, setup, c.sc, sched, opts.Seed, opts.Quick)
		if err != nil {
			return nil, fmt.Errorf("fig4 %s/%d/%s: %w", c.workload, c.ms, c.sc.Label, err)
		}
		rows := make([]LatencyRow, 0, 2)
		for _, seg := range []metrics.SegmentKind{metrics.Static, metrics.Dynamic} {
			rows = append(rows, LatencyRow{
				Workload:  c.workload,
				Segment:   seg,
				Minislots: c.ms,
				Scenario:  c.sc.Label,
				Scheduler: res.Scheduler,
				Mean:      res.Report.MeanLatency[seg],
				P99:       res.Report.P99Latency[seg],
			})
		}
		return rows, nil
	})
}

// latencyStaticSet returns the static set of one Figure 4 workload and
// its static slot count; the synthetic workload draws n messages.
func latencyStaticSet(wl string, seed uint64, n int) (signal.Set, int, error) {
	switch wl {
	case "BBW":
		return workload.BBW(), latencyStaticSlots, nil
	case "ACC":
		return workload.ACC(), latencyStaticSlots, nil
	case "synthetic":
		syn, err := workload.Synthetic(workload.SyntheticOptions{
			Messages: n,
			Seed:     deriveSeed(seed, seedStreamSynthetic, uint64(n)),
		})
		if err != nil {
			return signal.Set{}, 0, err
		}
		return syn, syntheticStaticSlots, nil
	default:
		return signal.Set{}, 0, fmt.Errorf("%w: unknown workload %q", ErrSetup, wl)
	}
}

// LatencyTable renders Figure 4 rows.
func LatencyTable(rows []LatencyRow) Table {
	t := Table{
		Title:  "Figure 4: average transmission latency",
		Header: []string{"workload", "segment", "minislots", "scenario", "scheduler", "mean", "p99"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Workload,
			r.Segment.String(),
			fmt.Sprintf("%d", r.Minislots),
			r.Scenario,
			r.Scheduler,
			r.Mean.String(),
			r.P99.String(),
		})
	}
	return t
}

// MissRow is one point of Figure 5.
type MissRow struct {
	// Minislots is the dynamic segment size.
	Minislots int
	// Scenario is the reliability setting label.
	Scenario string
	// Scheduler is the policy name.
	Scheduler string
	// MissRatio is late deliveries plus drops over all instances (the
	// mean over Replicas seeds).
	MissRatio float64
	// StdDev is the across-replica standard deviation (0 for a single
	// replica).
	StdDev float64
	// Replicas is the number of seeds aggregated.
	Replicas int
}

// MissOptions configures the Figure 5 harness.
type MissOptions struct {
	// Scenarios defaults to {BER7, BER9}.
	Scenarios []Scenario
	// Seed drives arrivals and faults; replica r runs at the derived
	// seed deriveSeed(Seed, seedStreamReplica, r), so replicas are
	// statistically independent and never collide across base seeds.
	Seed uint64
	// Quick shrinks the horizon.
	Quick bool
	// Minislots defaults to {25, 50, 75, 100}.
	Minislots []int
	// Replicas averages each point over this many seeds (default 1).
	Replicas int
	// Parallel is the sweep worker count: 0 uses every core, 1 runs
	// serially.  The rows are identical for every value.
	Parallel int
	// Ctx optionally bounds the sweep: every cell checks it before
	// starting, so a deadline or cancellation stops the run at the next
	// cell boundary.  Nil means run to completion.
	Ctx context.Context
}

func (o *MissOptions) fill() {
	if len(o.Scenarios) == 0 {
		o.Scenarios = []Scenario{BER7(), BER9()}
	}
	if len(o.Minislots) == 0 {
		o.Minislots = []int{25, 50, 75, 100}
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
}

// MissRatio reproduces Figure 5: deadline miss ratios on the BBW + SAE
// workload across dynamic segment sizes and reliability settings.  The
// scenario is compiled once per minislot coordinate, and each
// (minislots, scenario, scheduler) point is one runner batch of Replicas
// cells at the derived replica seeds.  A worker claims a whole point and
// runs its replicas back to back on one reused run state (missWorker),
// so replica r+1 pays a Reset instead of an engine construction.
// Results come back point-major in replica order, which keeps mean and
// stddev independent of the parallelism degree and equal to
// MissRatioNaive's one-engine-per-replica sweep.
func MissRatio(opts MissOptions) ([]MissRow, error) {
	opts.fill()
	set, err := latencyWorkload(workload.BBW(), latencyStaticSlots, opts.Seed)
	if err != nil {
		return nil, err
	}
	// One setup (feasibility analysis + bit-rate derivation) per
	// minislot coordinate, not per cell.
	setups, err := latencySetups(set, latencyStaticSlots, opts.Minislots)
	if err != nil {
		return nil, err
	}
	seeds := make([]uint64, opts.Replicas)
	for r := range seeds {
		seeds[r] = deriveSeed(opts.Seed, seedStreamReplica, uint64(r))
	}
	var points []missPoint
	for j, ms := range opts.Minislots {
		compiled, err := sim.Compile(sim.Options{
			Config:   setups[j].Config,
			Workload: set,
			BitRate:  setups[j].BitRate,
			Mode:     sim.Streaming,
			Duration: streamDuration(opts.Quick),
		})
		if err != nil {
			return nil, fmt.Errorf("fig5: %w", err)
		}
		for _, sc := range opts.Scenarios {
			for schedIdx := 0; schedIdx < 2; schedIdx++ {
				points = append(points, missPoint{ms: ms, sc: sc, schedIdx: schedIdx, compiled: compiled})
			}
		}
	}
	sizes := make([]int, len(points))
	for p := range sizes {
		sizes[p] = opts.Replicas
	}
	results, err := runner.MapBatchCtx(opts.Ctx, opts.Parallel, sizes,
		func() (*missWorker, error) { return &missWorker{point: -1}, nil },
		func(w *missWorker, p, r int) (sim.Result, error) {
			if p != w.point {
				pt := points[p]
				st, err := pt.compiled.NewState(schedulers(set, pt.sc)[pt.schedIdx])
				if err != nil {
					return sim.Result{}, err
				}
				w.point, w.st = p, st
			}
			return w.replica(points[p].sc, seeds[r])
		})
	if err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	rows := make([]MissRow, 0, len(points))
	for p, point := range points {
		group := results[p*opts.Replicas : (p+1)*opts.Replicas]
		vals := make([]float64, len(group))
		for r, res := range group {
			vals[r] = res.Report.OverallMissRatio()
		}
		mean, std := meanStd(vals)
		rows = append(rows, MissRow{
			Minislots: point.ms,
			Scenario:  point.sc.Label,
			Scheduler: group[len(group)-1].Scheduler,
			MissRatio: mean,
			StdDev:    std,
			Replicas:  opts.Replicas,
		})
	}
	return rows, nil
}

// missPoint is one (minislots, scenario, scheduler) point of Figure 5.
type missPoint struct {
	ms       int
	sc       Scenario
	schedIdx int
	compiled *sim.Compiled
}

// missWorker is one pool worker's private state.  The runner hands a
// worker whole points, so it keeps only the run state of the point it
// is working through.  Its BER injector pair outlives points: Reseed(s)
// is contractually indistinguishable from a fresh NewBERInjector(ber, s)
// but keeps the memoized per-frame-size failure probabilities warm, so
// the pair is rebuilt only when a point's BER differs.
type missWorker struct {
	point      int
	st         *sim.RunState
	injA, injB *fault.BERInjector
}

// replica runs one replica of the worker's current point: seed the
// channel injectors from the replica seed's channel streams, rewind the
// state and run it.  Everything the run consumes is rewound by Reset or
// derived from seed, so the result does not depend on which replicas
// the worker ran before.
//
//lint:deterministic
func (w *missWorker) replica(sc Scenario, seed uint64) (sim.Result, error) {
	if w.injA == nil || w.injA.BER() != sc.BER {
		a, b, err := injectors(sc, seed)
		if err != nil {
			return sim.Result{}, err
		}
		w.injA, w.injB = a, b
	} else {
		w.injA.Reseed(deriveSeed(seed, seedStreamChannelA, 0))
		w.injB.Reseed(deriveSeed(seed, seedStreamChannelB, 0))
	}
	if err := w.st.Reset(sim.ReplicaOptions{Seed: seed, InjectorA: w.injA, InjectorB: w.injB}); err != nil {
		return sim.Result{}, err
	}
	return w.st.Run()
}

// meanStd returns the mean and population standard deviation.
func meanStd(samples []float64) (float64, float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(len(samples))
	if len(samples) < 2 {
		return mean, 0
	}
	var ss float64
	for _, v := range samples {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(samples)))
}

// MissTable renders Figure 5 rows.
func MissTable(rows []MissRow) Table {
	t := Table{
		Title:  "Figure 5: deadline miss ratio",
		Header: []string{"minislots", "scenario", "scheduler", "miss ratio", "stddev", "replicas"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Minislots),
			r.Scenario,
			r.Scheduler,
			fmt.Sprintf("%.4f", r.MissRatio),
			fmt.Sprintf("%.4f", r.StdDev),
			fmt.Sprintf("%d", r.Replicas),
		})
	}
	return t
}
