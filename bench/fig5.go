package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"time"

	"github.com/flexray-go/coefficient/internal/core"
	"github.com/flexray-go/coefficient/internal/experiment"
	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/fspec"
	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/trace"
	"github.com/flexray-go/coefficient/internal/workload"
)

// The Figure 5 geometry: the (minislots, setting) grid in the order
// experiment.MissRatio fills it in by default, the latency cycle's 30
// static slots, the streaming horizons and the 1 ms cycle of
// experiment.LatencySetup.
var (
	fig5Minislots = []int{25, 50, 75, 100}
	fig5Settings  = []experiment.Scenario{experiment.BER7(), experiment.BER9()}
	fig5Scheds    = []string{"CoEfficient", "FSPEC"}
)

const (
	latencyStaticSlots = 30
	streamHorizon      = 2 * time.Second
	quickHorizon       = 300 * time.Millisecond
	latencyCycle       = time.Millisecond
	// fig5Replicas per grid point, as coefficientsim -experiment fig5
	// runs them.
	fig5Replicas = 100
)

// fig5 is the fig5-mc workload: Monte-Carlo miss-ratio requests through
// experiment.MissRatio, each the whole of Figure 5 at 100 replicas per
// point and the 2 s horizon on every core — what coefficientsim
// -experiment fig5 runs — on a fresh base seed.  A smaller request would
// change what is measured: one grid point's two batches leave a worker
// idle while the slower scheduler finishes, which costs a third more wall
// time over the grid, and fewer replicas multiply the per-point
// construction the replica engine amortises.
type fig5 struct {
	seed     uint64
	quick    bool
	parallel int
	// rows holds each request's output; a request run again (by a later
	// window) must reproduce it exactly.
	rows       map[int][]experiment.MissRow
	mismatches []string
	tp         *probes
}

func newFig5(seed uint64) *fig5 {
	return &fig5{seed: seed, rows: make(map[int][]experiment.MissRow)}
}

// opts are request k's options: the whole grid at a base seed derived
// from (seed, k).
func (f *fig5) opts(k int) experiment.MissOptions {
	return experiment.MissOptions{
		Scenarios: fig5Settings,
		Seed:      runner.CellSeed(f.seed, streamFig5Request, uint64(k)),
		Quick:     f.quick,
		Minislots: fig5Minislots,
		Replicas:  fig5Replicas,
		Parallel:  f.parallel,
	}
}

func (f *fig5) horizon() time.Duration {
	if f.quick {
		return quickHorizon
	}
	return streamHorizon
}

// setUp warms the code paths and caches with one replica of one point,
// which users pay once per process too.  Its inputs do not depend on the
// run's seed, so neither does the set-up's cost.
func (f *fig5) setUp() error {
	_, err := experiment.MissRatio(experiment.MissOptions{
		Scenarios: fig5Settings[:1],
		Seed:      runner.CellSeed(pinnedSeed, streamWarmup, 0),
		Quick:     f.quick,
		Minislots: fig5Minislots[:1],
		Replicas:  1,
		Parallel:  f.parallel,
	})
	return err
}

func (f *fig5) tearDown() error { return nil }

func (f *fig5) points() int { return len(fig5Minislots) * len(fig5Settings) * len(fig5Scheds) }

func (f *fig5) window(d time.Duration, tp *probes) (windowResult, error) {
	f.tp = tp
	perRequest := int64(f.points()*fig5Replicas) * int64(f.horizon()/latencyCycle)
	return closedLoop(d, tp, "fig5-mc", func(k int, parent int64) (int64, error) {
		var rows []experiment.MissRow
		var err error
		if tp == nil {
			rows, err = experiment.MissRatio(f.opts(k))
		} else {
			rows, err = f.traced(f.opts(k), parent)
		}
		if err != nil {
			return 0, err
		}
		if err := f.record(k, rows); err != nil {
			return 0, err
		}
		return perRequest, nil
	}), nil
}

// point returns the minislots and setting of row i of a request.
func point(i int) (int, experiment.Scenario) {
	return fig5Minislots[i/(len(fig5Settings)*len(fig5Scheds))], fig5Settings[i/len(fig5Scheds)%len(fig5Settings)]
}

// record validates one request's rows and keeps them.
func (f *fig5) record(k int, rows []experiment.MissRow) error {
	if len(rows) != f.points() {
		return fmt.Errorf("fig5 request %d: %d rows, want %d", k, len(rows), f.points())
	}
	for i, r := range rows {
		ms, sc := point(i)
		if r.Minislots != ms || r.Scenario != sc.Label || r.Scheduler != fig5Scheds[i%len(fig5Scheds)] ||
			r.Replicas != fig5Replicas || r.MissRatio < 0 || r.MissRatio > 1 || !(r.StdDev >= 0) {
			return fmt.Errorf("fig5 request %d: implausible row %d %+v", k, i, r)
		}
	}
	if prev, ok := f.rows[k]; ok {
		if !reflect.DeepEqual(prev, rows) {
			f.mismatches = append(f.mismatches, fmt.Sprintf("fig5 request %d: %+v, earlier %+v", k, rows, prev))
		}
		return nil
	}
	f.rows[k] = rows
	return nil
}

func (f *fig5) check(*probes) error {
	if len(f.mismatches) > 0 {
		return fmt.Errorf("fig5 outputs changed between windows: %s", f.mismatches[0])
	}
	first, ok := f.rows[0]
	if !ok {
		return errors.New("fig5: the first request did not complete")
	}
	// JSON keeps every float exactly, stddev included.
	data, err := json.Marshal(first)
	if err != nil {
		return err
	}
	if err := checkDigest("fig5-mc", f.seed, data); err != nil {
		return err
	}
	// Any seed: one sampled grid point of one sampled request against the
	// one-engine-per-replica reference implementation.  Replica seeds
	// depend only on the base seed, so the point run alone reproduces its
	// rows of the whole grid.
	k := sampleIndex(f.seed, len(f.rows))
	i := len(fig5Scheds) * fault.NewRNG(runner.CellSeed(f.seed, streamSample, 2)).Intn(f.points()/len(fig5Scheds))
	o := f.opts(k)
	ms, sc := point(i)
	o.Minislots, o.Scenarios = []int{ms}, []experiment.Scenario{sc}
	naive, err := experiment.MissRatioNaive(o)
	if err != nil {
		return fmt.Errorf("fig5 reference run: %w", err)
	}
	if want := f.rows[k][i : i+len(fig5Scheds)]; !reflect.DeepEqual(naive, want) {
		return fmt.Errorf("fig5 request %d, %d minislots %s: %+v, MissRatioNaive %+v", k, ms, sc.Label, want, naive)
	}
	return nil
}

func (f *fig5) layers(tp *probes, w windowResult, m map[string]float64) {
	m["pool.busy_ratio"] = busyRatio(tp, runner.Workers(f.parallel), w.wall, "sim.new_state", "sim.reset", "sim.run")
}

// fig5Spec is one (minislots, setting, scheduler) batch of a request.
type fig5Spec struct {
	ms       int
	sc       experiment.Scenario
	compiled *sim.Compiled
	newSched func() sim.Scheduler
}

// traced is experiment.MissRatio rebuilt from the same public pieces —
// workload sets, LatencySetup and sim.Compile per minislot coordinate,
// then NewState once per batch and Reset → Run per replica on the
// runner's batch pool — with every layer call decorated or spanned.
func (f *fig5) traced(o experiment.MissOptions, parent int64) ([]experiment.MissRow, error) {
	tp := f.tp
	sae, err := workload.SAEAperiodic(workload.SAEAperiodicOptions{
		FirstID: latencyStaticSlots + 1, Count: 30, Seed: o.Seed,
	})
	if err != nil {
		return nil, err
	}
	bbw := workload.BBW()
	set, err := workload.Merge(bbw.Name+"+sae", bbw, sae)
	if err != nil {
		return nil, err
	}
	var specs []fig5Spec
	for _, ms := range o.Minislots {
		key := fmt.Sprintf("%d", ms)
		sp := tp.tr.open("experiment.setup", key, parent)
		setup, err := experiment.LatencySetup(set, latencyStaticSlots, ms)
		tp.tr.done(sp)
		if err != nil {
			return nil, err
		}
		sp = tp.tr.open("sim.compile", key, parent)
		compiled, err := sim.Compile(sim.Options{
			Config: setup.Config, Workload: set, BitRate: setup.BitRate,
			Mode: sim.Streaming, Duration: f.horizon(),
		})
		tp.tr.done(sp)
		if err != nil {
			return nil, err
		}
		for _, sc := range o.Scenarios {
			specs = append(specs,
				fig5Spec{ms, sc, compiled, func() sim.Scheduler {
					return core.New(core.Options{BER: sc.BER, Goal: sc.Goal, Unit: experiment.PlanUnit})
				}},
				fig5Spec{ms, sc, compiled, func() sim.Scheduler {
					return fspec.New(fspec.Options{Copies: experiment.FSPECCopies(set, sc, 0)})
				}})
		}
	}
	seeds := make([]uint64, o.Replicas)
	for r := range seeds {
		seeds[r] = runner.CellSeed(o.Seed, seedStreamReplica, uint64(r))
	}
	wantCycles := int64(f.horizon() / latencyCycle)
	sizes := make([]int, len(specs))
	for i := range sizes {
		sizes[i] = o.Replicas
	}
	results, err := runner.MapBatchCtx(context.Background(), o.Parallel, sizes,
		func() (*fig5Worker, error) {
			return &fig5Worker{states: make(map[int]*sim.RunState), sink: tp.wrapSink(trace.NullSink{})}, nil
		},
		func(w *fig5Worker, b, i int) (sim.Result, error) {
			spec := specs[b]
			key := fmt.Sprintf("%d/%s/%d/r%d", spec.ms, spec.sc.Label, b%len(fig5Scheds), i)
			st, ok := w.states[b]
			if !ok {
				sp := tp.tr.open("sim.new_state", key, parent)
				var err error
				st, err = spec.compiled.NewState(tp.wrapScheduler(spec.newSched()))
				tp.tr.done(sp)
				if err != nil {
					return sim.Result{}, err
				}
				w.states[b] = st
			}
			ro, err := w.replica(tp, spec.sc, seeds[i])
			if err != nil {
				return sim.Result{}, err
			}
			sp := tp.tr.open("sim.reset", key, parent)
			err = st.Reset(ro)
			tp.tr.done(sp)
			if err != nil {
				return sim.Result{}, err
			}
			sp = tp.tr.open("sim.run", key, parent)
			res, err := st.Run()
			tp.tr.done(sp)
			if err != nil {
				return sim.Result{}, err
			}
			tp.cycles.Add(res.Cycles)
			tp.runs.Add(1)
			if res.Cycles != wantCycles {
				return sim.Result{}, fmt.Errorf("replica simulated %d cycles, the metrics assume %d", res.Cycles, wantCycles)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	rows := make([]experiment.MissRow, 0, len(specs))
	for b, spec := range specs {
		group := results[b*o.Replicas : (b+1)*o.Replicas]
		vals := make([]float64, len(group))
		for r, res := range group {
			vals[r] = res.Report.OverallMissRatio()
		}
		mean, std := meanStd(vals)
		rows = append(rows, experiment.MissRow{
			Minislots: spec.ms,
			Scenario:  spec.sc.Label,
			Scheduler: group[len(group)-1].Scheduler,
			MissRatio: mean,
			StdDev:    std,
			Replicas:  o.Replicas,
		})
	}
	return rows, nil
}

// fig5Worker is one pool worker's state: a run state per batch, one
// decorated sink, and one decorated injector pair reseeded per replica.
type fig5Worker struct {
	states     map[int]*sim.RunState
	sink       *sinkProbe
	injA, injB *injProbe
	wrapA      fault.Injector
	wrapB      fault.Injector
	ber        float64
}

// replica derives a replica's options as the experiment package does:
// channel injectors seeded from the replica seed's channel streams.  The
// worker reseeds one injector pair instead of building one per replica,
// which fault.Reseeder guarantees is indistinguishable, as long as the
// bit error rate stays the same.
func (w *fig5Worker) replica(tp *probes, sc experiment.Scenario, seed uint64) (sim.ReplicaOptions, error) {
	seedA := runner.CellSeed(seed, seedStreamChannelA, 0)
	seedB := runner.CellSeed(seed, seedStreamChannelB, 0)
	if w.injA == nil || w.ber != sc.BER {
		a, err := fault.NewBERInjector(sc.BER, seedA)
		if err != nil {
			return sim.ReplicaOptions{}, err
		}
		b, err := fault.NewBERInjector(sc.BER, seedB)
		if err != nil {
			return sim.ReplicaOptions{}, err
		}
		w.injA, w.wrapA = tp.wrapInjector(a)
		w.injB, w.wrapB = tp.wrapInjector(b)
		w.ber = sc.BER
	} else {
		w.injA.inner.(fault.Reseeder).Reseed(seedA)
		w.injB.inner.(fault.Reseeder).Reseed(seedB)
	}
	return sim.ReplicaOptions{Seed: seed, InjectorA: w.wrapA, InjectorB: w.wrapB, Sink: w.sink}, nil
}

// meanStd is the experiment package's mean and population standard
// deviation, in the same floating-point order.
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
