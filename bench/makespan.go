package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"time"

	"github.com/flexray-go/coefficient/internal/core"
	"github.com/flexray-go/coefficient/internal/experiment"
	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/fspec"
	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/trace"
	"github.com/flexray-go/coefficient/internal/workload"
)

// batchCycle is experiment.RunningTimeSetup's 5 ms cycle (5000 × 1 µs).
const batchCycle = 5 * time.Millisecond

// makespan is the makespan workload: the Figures 1 and 2 batch sweeps
// through experiment.RunningTime.  A request is one figure, as
// coefficientsim -experiment fig1 or fig2 runs it; requests alternate
// Figure 1 (BER-7) and Figure 2 (BER-9), and each pair shares a seed
// derived from the run's seed, as the two experiments of one
// coefficientsim invocation do.
type makespan struct {
	seed uint64
	// base carries the sweep options every request starts from; the zero
	// value is the paper's full sweep.
	base       experiment.RunningTimeOptions
	rows       map[int][]experiment.RunningTimeRow
	mismatches []string
}

func newMakespan(seed uint64) *makespan {
	return &makespan{seed: seed, rows: make(map[int][]experiment.RunningTimeRow)}
}

// figures are the settings of Figure 1 and Figure 2.
var figures = []experiment.Scenario{experiment.BER7(), experiment.BER9()}

// opts are request k's options: figure k mod 2 at the seed of pair k/2.
func (m *makespan) opts(k int) experiment.RunningTimeOptions {
	o := m.base
	o.Scenario = figures[k%len(figures)]
	o.Seed = runner.CellSeed(m.seed, streamMakespanRequest, uint64(k/len(figures)))
	return o
}

// setUp warms the batch path with one Quick Figure 1 (a fifth of the
// batch size), which users pay once per process too.  Its inputs do not
// depend on the run's seed, so neither does the set-up's cost.
func (m *makespan) setUp() error {
	o := m.base
	o.Seed = runner.CellSeed(pinnedSeed, streamWarmup, 0)
	o.Quick = true
	_, err := experiment.RunningTime(o)
	return err
}

func (m *makespan) tearDown() error { return nil }

func (m *makespan) window(d time.Duration, tp *probes) (windowResult, error) {
	if tp != nil {
		tp.runIncludesInit = true
	}
	return closedLoop(d, tp, "makespan", func(k int, parent int64) (int64, error) {
		sweep := experiment.RunningTime
		if tp != nil {
			sweep = func(o experiment.RunningTimeOptions) ([]experiment.RunningTimeRow, error) {
				return m.sweep(o, tp, parent, tp.tracedRun)
			}
		}
		rows, err := sweep(m.opts(k))
		if err != nil {
			return 0, err
		}
		return m.record(k, rows)
	}), nil
}

// batchCycles is the number of cycles a batch run with this makespan
// simulated: the last delivery ends inside the final cycle.  The traced
// path checks it against sim.Result.Cycles.
func batchCycles(makespan time.Duration) int64 { return int64(makespan/batchCycle) + 1 }

// record validates one request's rows, keeps them and returns their
// simulated cycles.
func (m *makespan) record(k int, rows []experiment.RunningTimeRow) (int64, error) {
	if len(rows) == 0 || len(rows)%2 != 0 {
		return 0, fmt.Errorf("makespan request %d: %d rows", k, len(rows))
	}
	var cycles int64
	for i, r := range rows {
		want := "CoEfficient"
		if i%2 == 1 {
			want = "FSPEC"
		}
		if r.Scheduler != want || r.RunningTime <= 0 || r.Retransmissions < 0 || r.Messages <= 0 {
			return 0, fmt.Errorf("makespan request %d: implausible row %+v", k, r)
		}
		cycles += batchCycles(r.RunningTime)
	}
	if prev, ok := m.rows[k]; ok {
		if !reflect.DeepEqual(prev, rows) {
			m.mismatches = append(m.mismatches, fmt.Sprintf("makespan request %d changed between windows", k))
		}
		return cycles, nil
	}
	m.rows[k] = rows
	return cycles, nil
}

func (m *makespan) check(*probes) error {
	if len(m.mismatches) > 0 {
		return errors.New(m.mismatches[0])
	}
	fig1, ok1 := m.rows[0]
	fig2, ok2 := m.rows[1]
	if !ok1 || !ok2 {
		return errors.New("makespan: the first two requests did not complete")
	}
	data, err := json.Marshal(append(append([]experiment.RunningTimeRow(nil), fig1...), fig2...))
	if err != nil {
		return err
	}
	if err := checkDigest("makespan", m.seed, data); err != nil {
		return err
	}
	// Any seed: one sampled request recomputed serially through the
	// traced rebuild on the compiled-state construction path
	// (sim.Compile → NewState → Reset → Run instead of sim.Run).
	k := sampleIndex(m.seed, len(m.rows))
	again, err := m.recompute(m.opts(k))
	if err != nil {
		return fmt.Errorf("makespan reference run: %w", err)
	}
	if !reflect.DeepEqual(again, m.rows[k]) {
		return fmt.Errorf("makespan request %d differs when recomputed through sim.Compile", k)
	}
	return nil
}

func (m *makespan) layers(tp *probes, w windowResult, out map[string]float64) {
	out["pool.busy_ratio"] = busyRatio(tp, runner.Workers(m.base.Parallel), w.wall, "makespan.cell")
}

// rtCell is one (slot count, workload, set size) point of the sweep.
type rtCell struct {
	slots    int
	workload string
	n        int
}

// runningTimeCells enumerates the sweep in experiment.RunningTime's
// order, after its defaults.
func runningTimeCells(o *experiment.RunningTimeOptions) []rtCell {
	if o.Scenario.Label == "" {
		o.Scenario = experiment.BER7()
	}
	if len(o.Slots) == 0 {
		o.Slots = []int{80, 120}
	}
	if len(o.MessageCounts) == 0 {
		o.MessageCounts = []int{5, 10, 15, 20}
	}
	if len(o.SyntheticCounts) == 0 {
		o.SyntheticCounts = []int{20, 40, 60, 80}
	}
	var cells []rtCell
	for _, slots := range o.Slots {
		for _, name := range []string{"BBW", "ACC"} {
			for _, n := range o.MessageCounts {
				cells = append(cells, rtCell{slots, name, n})
			}
		}
		for _, n := range o.SyntheticCounts {
			if n <= slots {
				cells = append(cells, rtCell{slots, "synthetic", n})
			}
		}
	}
	return cells
}

// cellSet builds a cell's message set as experiment.RunningTime does:
// the first n static messages plus up to 30 SAE aperiodic messages above
// the static slot range.
func cellSet(c rtCell, seed uint64) (signal.Set, int, error) {
	var base signal.Set
	n := c.n
	switch c.workload {
	case "synthetic":
		syn, err := workload.Synthetic(workload.SyntheticOptions{
			Messages: n, Seed: runner.CellSeed(seed, seedStreamSynthetic, uint64(n)),
		})
		if err != nil {
			return signal.Set{}, 0, err
		}
		base = syn
	case "ACC":
		base = workload.ACC()
	default:
		base = workload.BBW()
	}
	if n > len(base.Messages) {
		n = len(base.Messages)
	}
	static := signal.Set{Name: base.Name, Messages: append([]signal.Message(nil), base.Messages[:n]...)}
	sae, err := workload.SAEAperiodic(workload.SAEAperiodicOptions{
		FirstID: c.slots + 1, Count: min(n, 30), Seed: seed,
	})
	if err != nil {
		return signal.Set{}, 0, err
	}
	set, err := workload.Merge(fmt.Sprintf("%s-%d", base.Name, n), static, sae)
	return set, n, err
}

// recompute is the check's second opinion: the same sweep, serially,
// each run built through sim.Compile → NewState → Reset → Run.
func (m *makespan) recompute(o experiment.RunningTimeOptions) ([]experiment.RunningTimeRow, error) {
	o.Parallel = 1
	return m.sweep(o, nil, 0, compiledRun)
}

// runFunc runs one batch simulation.
type runFunc func(opts sim.Options, sched sim.Scheduler, key string, parent int64) (sim.Result, error)

// sweep runs one RunningTime request through run; tp, when set, spans
// the cells and set-ups under parent.
func (m *makespan) sweep(o experiment.RunningTimeOptions, tp *probes, parent int64, run runFunc) ([]experiment.RunningTimeRow, error) {
	cells := runningTimeCells(&o)
	instances := 100
	if o.Quick {
		instances = 20
	}
	sc := o.Scenario
	return runner.FlatMapCtx(context.Background(), o.Parallel, len(cells), func(i int) ([]experiment.RunningTimeRow, error) {
		c := cells[i]
		key := fmt.Sprintf("%s/%d/%d/%s", c.workload, c.n, c.slots, sc.Label)
		if tp != nil {
			sp := tp.tr.open("makespan.cell", key, parent)
			defer tp.tr.done(sp)
		}
		set, n, err := cellSet(c, o.Seed)
		if err != nil {
			return nil, err
		}
		var setup experiment.Setup
		if tp != nil {
			sp := tp.tr.open("experiment.setup", key, parent)
			setup, err = experiment.RunningTimeSetup(set, c.slots)
			tp.tr.done(sp)
		} else {
			setup, err = experiment.RunningTimeSetup(set, c.slots)
		}
		if err != nil {
			return nil, err
		}
		scheds := []sim.Scheduler{
			core.New(core.Options{BER: sc.BER, Goal: sc.Goal, Unit: experiment.PlanUnit}),
			fspec.New(fspec.Options{Copies: experiment.FSPECCopies(set, sc, 0)}),
		}
		var rows []experiment.RunningTimeRow
		for _, sched := range scheds {
			injA, err := fault.NewBERInjector(sc.BER, runner.CellSeed(o.Seed, seedStreamChannelA, 0))
			if err != nil {
				return nil, err
			}
			injB, err := fault.NewBERInjector(sc.BER, runner.CellSeed(o.Seed, seedStreamChannelB, 0))
			if err != nil {
				return nil, err
			}
			res, err := run(sim.Options{
				Config: setup.Config, Workload: set, BitRate: setup.BitRate,
				InjectorA: injA, InjectorB: injB, Seed: o.Seed,
				Mode: sim.Batch, BatchInstances: instances,
			}, sched, key, parent)
			if err != nil {
				return nil, fmt.Errorf("%s/%s/%d slots: %w", c.workload, sched.Name(), c.slots, err)
			}
			if want := batchCycles(res.Report.Makespan); res.Cycles != want {
				return nil, fmt.Errorf("%s: batch run simulated %d cycles, the metrics assume %d", key, res.Cycles, want)
			}
			rows = append(rows, experiment.RunningTimeRow{
				Workload:        c.workload,
				Slots:           c.slots,
				Messages:        n,
				Scheduler:       res.Scheduler,
				RunningTime:     res.Report.Makespan,
				Retransmissions: res.Report.Retransmissions,
			})
		}
		return rows, nil
	})
}

// tracedRun is sim.Run with the scheduler, both injectors and the sink
// decorated, inside a sim.run span.
func (tp *probes) tracedRun(opts sim.Options, sched sim.Scheduler, key string, parent int64) (sim.Result, error) {
	_, opts.InjectorA = tp.wrapInjector(opts.InjectorA)
	_, opts.InjectorB = tp.wrapInjector(opts.InjectorB)
	opts.Sink = tp.wrapSink(trace.NullSink{})
	sp := tp.tr.open("sim.run", key, parent)
	res, err := sim.Run(opts, tp.wrapScheduler(sched))
	tp.tr.done(sp)
	if err == nil {
		tp.cycles.Add(res.Cycles)
		tp.runs.Add(1)
	}
	return res, err
}

// compiledRun runs one simulation through the compiled-state path: the
// per-replica options move from sim.Options to sim.ReplicaOptions.
func compiledRun(opts sim.Options, sched sim.Scheduler, _ string, _ int64) (sim.Result, error) {
	ro := sim.ReplicaOptions{Seed: opts.Seed, InjectorA: opts.InjectorA, InjectorB: opts.InjectorB}
	opts.InjectorA, opts.InjectorB = nil, nil
	compiled, err := sim.Compile(opts)
	if err != nil {
		return sim.Result{}, err
	}
	st, err := compiled.NewState(sched)
	if err != nil {
		return sim.Result{}, err
	}
	if err := st.Reset(ro); err != nil {
		return sim.Result{}, err
	}
	return st.Run()
}
