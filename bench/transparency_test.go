package main

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/core"
	"github.com/flexray-go/coefficient/internal/corpus"
	"github.com/flexray-go/coefficient/internal/experiment"
	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/node"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"
)

// The traced run rebuilds MissRatio's batch specs, RunningTime's cells
// and corpus.Run's cells from public pieces so it can decorate them.
// These gates hold that second code path to the entry points' output,
// byte for byte, at parallel 1 and 2.
const gateSeed = 7

func TestTracedPathsAreTransparent(t *testing.T) {
	for _, parallel := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			t.Run("fig5", func(t *testing.T) { gateFig5(t, parallel) })
			t.Run("makespan", func(t *testing.T) { gateMakespan(t, parallel) })
			t.Run("corpus", func(t *testing.T) { gateCorpus(t, parallel) })
			t.Run("daemon", func(t *testing.T) { gateDaemon(t, parallel) })
		})
	}
}

func gateFig5(t *testing.T, parallel int) {
	f := newFig5(gateSeed)
	f.quick, f.parallel, f.tp = true, parallel, &probes{}
	// One grid point per parallelism keeps the gate short: BER-7 at
	// parallel 1, BER-9 at parallel 2.
	o := f.opts(0)
	o.Minislots, o.Scenarios = fig5Minislots[:1], fig5Settings[parallel-1:parallel]
	want, err := experiment.MissRatio(o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.traced(o, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("traced rows %+v, MissRatio %+v", got, want)
	}
	if tot := f.tp.totals(); tot.corrupts.calls == 0 || tot.record.calls == 0 || tot.sched["core"].static.calls == 0 {
		t.Fatal("the traced fig5 path bypassed its decorators")
	}
}

func gateMakespan(t *testing.T, parallel int) {
	m := newMakespan(gateSeed)
	m.base = experiment.RunningTimeOptions{
		Quick: true, Parallel: parallel,
		Slots: []int{80}, MessageCounts: []int{5, 20}, SyntheticCounts: []int{20},
	}
	tp := &probes{}
	// Requests 0 and 1 are Figure 1 and Figure 2.
	for k := 0; k < 2; k++ {
		want, err := experiment.RunningTime(m.opts(k))
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.sweep(m.opts(k), tp, 0, tp.tracedRun)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d: traced rows %+v, RunningTime %+v", k, got, want)
		}
		again, err := m.recompute(m.opts(k))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("request %d: compiled-path rows %+v, RunningTime %+v", k, again, want)
		}
	}
}

func gateCorpus(t *testing.T, parallel int) {
	cases, err := corpus.Generate(corpus.GenOptions{Seed: gateSeed, Count: 6, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := corpus.Run(cases, corpus.RunOptions{Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	c := newCorpusWorkload(gateSeed)
	c.parallel, c.tp = parallel, &probes{}
	got, err := c.traced(cases, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := corpus.CanonicalResults(want)
	if err != nil {
		t.Fatal(err)
	}
	b, err := corpus.CanonicalResults(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("traced corpus outcomes differ from corpus.Run:\n%s\nvs\n%s", b, a)
	}
}

func gateDaemon(t *testing.T, workers int) {
	d := newDaemon(gateSeed, true)
	d.workers = workers
	if err := d.setUp(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.tearDown(); err != nil {
			t.Error(err)
		}
	}()
	w, err := d.startWatcher(1)
	if err != nil {
		t.Fatal(err)
	}
	d.fsp.start()
	for i := 0; i < 3; i++ {
		j, err := d.newJob(false)
		if err != nil {
			t.Fatal(err)
		}
		j.due = time.Duration(nowNs())
		if err := d.submit(j, w); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(30 * time.Second); w.pending() > 0; time.Sleep(pollEvery) {
		if time.Now().After(deadline) {
			t.Fatal("jobs did not finish")
		}
	}
	d.fsp.stop()
	if err := w.halt(); err != nil {
		t.Fatal(err)
	}
	d.fsp.attribute(d.jobs)
	for _, j := range d.jobs {
		if j.state != "done" {
			t.Fatalf("job %s: %s %s", j.id, j.state, j.errMsg)
		}
		rows, err := experiment.Degradation(degradationOptions(j.spec))
		if err != nil {
			t.Fatal(err)
		}
		if want := experiment.DegradationTable(rows).String(); j.table != want {
			t.Fatalf("job %s: served table\n%s\nwant the offline table\n%s", j.id, j.table, want)
		}
		if !j.cached && (j.attempt == 0 || j.create < j.attempt || j.persist < j.create || j.done < j.persist) {
			t.Fatalf("job %s: stage timestamps out of order: attempt %v create %v persist %v done %v",
				j.id, j.attempt, j.create, j.persist, j.done)
		}
	}
}

// stubScheduler is a scheduler without ReplicaResettable.
type stubScheduler struct{}

func (stubScheduler) Name() string                                       { return "stub" }
func (stubScheduler) Init(*sim.Env) error                                { return nil }
func (stubScheduler) CycleStart(int64, timebase.Macrotick)               {}
func (stubScheduler) Result(*sim.Transmission, bool, timebase.Macrotick) {}
func (stubScheduler) InstanceDropped(*node.Instance, timebase.Macrotick) {}
func (stubScheduler) StaticSlot(frame.Channel, int64, int, timebase.Macrotick) *sim.Transmission {
	return nil
}
func (stubScheduler) DynamicSlot(frame.Channel, int64, int, int, int, timebase.Macrotick) *sim.Transmission {
	return nil
}

// TestDecoratorsKeepOptionalInterfaces: the engine picks the fault path
// by asserting fault.TimeVarying and the rewind path by asserting
// sim.ReplicaResettable, so a decorator must have each exactly when the
// decorated value does.
func TestDecoratorsKeepOptionalInterfaces(t *testing.T) {
	tp := &probes{}
	ber, err := fault.NewBERInjector(1e-7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, inj := tp.wrapInjector(ber); isTimeVarying(inj) {
		t.Error("a decorated BER injector claims to be time-varying")
	}
	profile, err := fault.NewProfile(1e-4, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	probe, inj := tp.wrapInjector(profile)
	tv, ok := inj.(fault.TimeVarying)
	if !ok {
		t.Fatal("a decorated time-varying injector lost fault.TimeVarying")
	}
	plain, err := fault.NewProfile(1e-4, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		at := timebase.Macrotick(i)
		if tv.CorruptsAt(2000, at) != plain.CorruptsAt(2000, at) {
			t.Fatalf("call %d: the decorated injector drew differently", i)
		}
	}
	if probe.corrupts.calls != 1000 || probe.hits == 0 {
		t.Errorf("decorator counted %d calls, %d hits", probe.corrupts.calls, probe.hits)
	}

	if _, ok := tp.wrapScheduler(core.New(core.Options{})).(sim.ReplicaResettable); !ok {
		t.Error("a decorated core scheduler lost sim.ReplicaResettable")
	}
	if _, ok := tp.wrapScheduler(stubScheduler{}).(sim.ReplicaResettable); ok {
		t.Error("a decorated scheduler without ResetReplica gained sim.ReplicaResettable")
	}
}

func isTimeVarying(inj fault.Injector) bool {
	_, ok := inj.(fault.TimeVarying)
	return ok
}
