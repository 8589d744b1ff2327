package main

// The traced run measures every layer from outside: decorators around
// the public seams the layers already expose (sim.Scheduler,
// fault.Injector, trace.Sink, journal.FS, serve.Hooks) count and time
// the calls that cross them, and spans bracket the calls the benchmark
// itself makes (Compile, NewState, Reset, Run, sim.Run, the experiment
// set-ups, trace hashing).  Nothing inside the program is instrumented,
// and the untraced run uses none of this.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/node"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/trace"
)

// epoch anchors the monotonic nanosecond clock the probes share.
var epoch = time.Now()

// nowNs reads the monotonic clock in nanoseconds since epoch.
func nowNs() int64 { return int64(time.Since(epoch)) }

// clockCost is what a timed interval reads with nothing inside it: the
// cost of the clock reads themselves, subtracted from every sample so a
// nanosecond-scale hook is not reported at the clock's own cost.
var clockCost = calibrateClock()

func calibrateClock() int64 {
	d := make([]float64, 2001)
	for i := range d {
		t0 := nowNs()
		d[i] = float64(nowNs() - t0)
	}
	return int64(median(d))
}

// sampleEvery sets how often a hot hook is timed: every call is
// counted, one call in sampleEvery on average is timed, and the timed
// share is scaled up — timing every slot call would double its cost.
// The timed calls sit at pseudo-random gaps of 1..2·sampleEvery-1
// rather than at every sampleEvery-th index: a fixed stride aliases
// with costs that recur at power-of-two call counts, such as a trace
// recorder doubling its event slice, and would time all or none of them.
const sampleEvery = 16

// hookSeeds gives every hook its own sampling phase.
var hookSeeds atomic.Uint64

// hook counts one hot call site exactly and times a sample of it.  A
// hook belongs to one decorator instance, which one goroutine drives.
type hook struct {
	calls, samples, sampledNs int64
	// next is the index of the next timed call; rng draws the gaps
	// (xorshift64, zero until the first call).
	next int64
	rng  uint64
}

// begin counts a call and returns its start time when it is timed, or
// -1 when it is not.
func (h *hook) begin() int64 {
	if h.rng == 0 {
		h.rng = hookSeeds.Add(0x9E3779B97F4A7C15) | 1
		h.next = h.gap() - 1
	}
	n := h.calls
	h.calls++
	if n != h.next {
		return -1
	}
	h.next += h.gap()
	return nowNs()
}

// gap draws the distance to the next timed call, uniform in
// [1, 2·sampleEvery-1].
func (h *hook) gap() int64 {
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	return 1 + int64(h.rng%(2*sampleEvery-1))
}

// end closes a call opened by begin.
func (h *hook) end(t0 int64) {
	if t0 < 0 {
		return
	}
	h.samples++
	h.sampledNs += max(0, nowNs()-t0-clockCost)
}

func (h *hook) add(o *hook) {
	h.calls += o.calls
	h.samples += o.samples
	h.sampledNs += o.sampledNs
}

// meanNs estimates the mean duration of one call.
func (h *hook) meanNs() float64 {
	if h.samples == 0 {
		return 0
	}
	return float64(h.sampledNs) / float64(h.samples)
}

// totalNs estimates the time spent in all calls.
func (h *hook) totalNs() float64 { return h.meanNs() * float64(h.calls) }

// span is one timed boundary: a layer call the benchmark made, or a
// daemon job stage.  Spans of one request share a key.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) ns() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
	next  atomic.Int64
}

// open starts a span; close it with done.
func (t *tracer) open(name, key string, parent int64) span {
	return span{ID: t.next.Add(1), Parent: parent, Name: name, Key: key, Start: nowNs()}
}

// done ends and keeps s.
func (t *tracer) done(s span) {
	s.End = nowNs()
	t.add(s)
}

// record keeps a span whose endpoints were measured elsewhere and
// returns its ID.
func (t *tracer) record(name, key string, parent, start, end int64) int64 {
	s := span{ID: t.next.Add(1), Parent: parent, Name: name, Key: key, Start: start, End: end}
	t.add(s)
	return s.ID
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// byName sums the count and duration of the spans with each name.
func (t *tracer) byName() map[string]spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]spanTotal)
	for _, s := range t.spans {
		tot := out[s.Name]
		tot.n++
		tot.ns += s.ns()
		out[s.Name] = tot
	}
	return out
}

// spanTotal aggregates the spans of one name.
type spanTotal struct {
	n, ns int64
}

// meanMs, meanUs are the mean span duration in ms and µs (0 for none).
func (s spanTotal) meanMs() float64 { return s.mean() / 1e6 }
func (s spanTotal) meanUs() float64 { return s.mean() / 1e3 }
func (s spanTotal) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.n)
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	enc := json.NewEncoder(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	return nil
}

// probes owns the tracer and the decorators of a traced window.
// Decorators register on creation; fold moves their counts into sum and
// drops them, so the window does not keep every simulation it decorated
// alive (a retained engine or trace recorder would grow the heap and
// change how often the collector runs, and with it the timings).
type probes struct {
	tr tracer

	mu     sync.Mutex
	scheds []*schedProbe
	injs   []*injProbe
	sinks  []*sinkProbe
	sum    simTotals

	// cycles and runs count the simulations run in the window.
	cycles, runs atomic.Int64
	// runIncludesInit marks sim.Run spans, which contain the scheduler's
	// Init; RunState.Run spans do not (NewState calls Init).
	runIncludesInit bool
}

// schedModule names the scheduler package behind a policy name.
func schedModule(name string) string {
	if name == "FSPEC" {
		return "fspec"
	}
	return "core"
}

// schedProbe decorates a sim.Scheduler, timing every hook the engine
// calls.  It deliberately does not implement sim.ReplicaResettable; see
// resettableSchedProbe.
type schedProbe struct {
	inner  sim.Scheduler
	module string

	initNs, inits                                int64
	cycleStart, static, dynamic, result, dropped hook
	staticTx, dynamicTx                          int64
	stolen, retx, redundant                      int64
}

// resettableSchedProbe adds ResetReplica for inner schedulers that
// implement it, so the engine rewinds a decorated scheduler exactly as
// it would the bare one (and re-Inits one that cannot rewind).
type resettableSchedProbe struct {
	*schedProbe
	rr sim.ReplicaResettable
}

func (p *resettableSchedProbe) ResetReplica() error { return p.rr.ResetReplica() }

// wrapScheduler decorates s and registers the decorator.
func (tp *probes) wrapScheduler(s sim.Scheduler) sim.Scheduler {
	p := &schedProbe{inner: s, module: schedModule(s.Name())}
	tp.mu.Lock()
	tp.scheds = append(tp.scheds, p)
	tp.mu.Unlock()
	if rr, ok := s.(sim.ReplicaResettable); ok {
		return &resettableSchedProbe{schedProbe: p, rr: rr}
	}
	return p
}

func (p *schedProbe) Name() string { return p.inner.Name() }

func (p *schedProbe) Init(env *sim.Env) error {
	t0 := nowNs()
	err := p.inner.Init(env)
	p.initNs += nowNs() - t0
	p.inits++
	return err
}

func (p *schedProbe) CycleStart(cycle int64, now timebase.Macrotick) {
	t0 := p.cycleStart.begin()
	p.inner.CycleStart(cycle, now)
	p.cycleStart.end(t0)
}

func (p *schedProbe) StaticSlot(ch frame.Channel, cycle int64, slot int, now timebase.Macrotick) *sim.Transmission {
	t0 := p.static.begin()
	tx := p.inner.StaticSlot(ch, cycle, slot, now)
	p.static.end(t0)
	if tx != nil {
		p.staticTx++
		p.countTx(tx)
	}
	return tx
}

func (p *schedProbe) DynamicSlot(ch frame.Channel, cycle int64, slotCounter, minislot, remaining int, now timebase.Macrotick) *sim.Transmission {
	t0 := p.dynamic.begin()
	tx := p.inner.DynamicSlot(ch, cycle, slotCounter, minislot, remaining, now)
	p.dynamic.end(t0)
	if tx != nil {
		p.dynamicTx++
		p.countTx(tx)
	}
	return tx
}

// countTx tallies the work a returned transmission represents.
func (p *schedProbe) countTx(tx *sim.Transmission) {
	if tx.Stolen {
		p.stolen++
	}
	if tx.Retx {
		p.retx++
	}
	if tx.Redundant {
		p.redundant++
	}
}

func (p *schedProbe) Result(tx *sim.Transmission, ok bool, now timebase.Macrotick) {
	t0 := p.result.begin()
	p.inner.Result(tx, ok, now)
	p.result.end(t0)
}

func (p *schedProbe) InstanceDropped(in *node.Instance, now timebase.Macrotick) {
	t0 := p.dropped.begin()
	p.inner.InstanceDropped(in, now)
	p.dropped.end(t0)
}

// injProbe decorates a fault.Injector.  It implements fault.TimeVarying
// only through timeVaryingInjProbe, and only when the inner injector
// does, because the engine picks its fault path by that assertion.
type injProbe struct {
	inner    fault.Injector
	corrupts hook
	hits     int64
}

type timeVaryingInjProbe struct {
	*injProbe
	tv fault.TimeVarying
}

// wrapInjector decorates inj, registers the decorator and returns it
// both as itself and as the injector to hand the engine.
func (tp *probes) wrapInjector(inj fault.Injector) (*injProbe, fault.Injector) {
	p := &injProbe{inner: inj}
	tp.mu.Lock()
	tp.injs = append(tp.injs, p)
	tp.mu.Unlock()
	if tv, ok := inj.(fault.TimeVarying); ok {
		return p, &timeVaryingInjProbe{injProbe: p, tv: tv}
	}
	return p, p
}

func (p *injProbe) Corrupts(bits int) bool {
	t0 := p.corrupts.begin()
	hit := p.inner.Corrupts(bits)
	p.corrupts.end(t0)
	if hit {
		p.hits++
	}
	return hit
}

func (p *injProbe) Stats() fault.Stats { return p.inner.Stats() }

func (p *timeVaryingInjProbe) CorruptsAt(bits int, at timebase.Macrotick) bool {
	t0 := p.corrupts.begin()
	hit := p.tv.CorruptsAt(bits, at)
	p.corrupts.end(t0)
	if hit {
		p.hits++
	}
	return hit
}

// eventKinds sizes the per-kind event counters.
const eventKinds = int(trace.EventPOCState) + 1

// sinkProbe decorates a trace.Sink, counting events per kind.
type sinkProbe struct {
	inner  trace.Sink
	record hook
	kinds  [eventKinds]int64
}

// wrapSink decorates s and registers the decorator.
func (tp *probes) wrapSink(s trace.Sink) *sinkProbe {
	p := &sinkProbe{inner: s}
	tp.mu.Lock()
	tp.sinks = append(tp.sinks, p)
	tp.mu.Unlock()
	return p
}

func (p *sinkProbe) Record(e trace.Event) {
	t0 := p.record.begin()
	p.inner.Record(e)
	p.record.end(t0)
	if k := int(e.Kind); k >= 0 && k < eventKinds {
		p.kinds[k]++
	}
}

// traceKinds are the event kinds reported one by one.
var traceKinds = []trace.EventKind{
	trace.EventTxStart, trace.EventFault, trace.EventRetransmit,
	trace.EventDrop, trace.EventDeadlineMiss,
}

// simTotals sums the decorators of one traced window.
type simTotals struct {
	sched    map[string]*schedProbe // by module, summed
	corrupts hook
	hits     int64
	record   hook
	kinds    [eventKinds]int64
	// inHook estimates the time spent inside decorated calls made from
	// within sim.run spans, which a run's self time excludes.
	inHook float64
}

// fold adds the registered decorators' counts to the totals and drops
// the decorators.  Call it only while no decorated run is in progress.
func (tp *probes) fold() {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	t := &tp.sum
	if t.sched == nil {
		t.sched = map[string]*schedProbe{"core": {}, "fspec": {}}
	}
	for _, p := range tp.scheds {
		s := t.sched[p.module]
		s.initNs += p.initNs
		s.inits += p.inits
		s.cycleStart.add(&p.cycleStart)
		s.static.add(&p.static)
		s.dynamic.add(&p.dynamic)
		s.result.add(&p.result)
		s.dropped.add(&p.dropped)
		s.staticTx += p.staticTx
		s.dynamicTx += p.dynamicTx
		s.stolen += p.stolen
		s.retx += p.retx
		s.redundant += p.redundant
		t.inHook += p.cycleStart.totalNs() + p.static.totalNs() + p.dynamic.totalNs() +
			p.result.totalNs() + p.dropped.totalNs()
		if tp.runIncludesInit {
			t.inHook += float64(p.initNs)
		}
	}
	for _, p := range tp.injs {
		t.corrupts.add(&p.corrupts)
		t.hits += p.hits
		t.inHook += p.corrupts.totalNs()
	}
	for _, p := range tp.sinks {
		t.record.add(&p.record)
		for k, n := range p.kinds {
			t.kinds[k] += n
		}
		t.inHook += p.record.totalNs()
	}
	tp.scheds, tp.injs, tp.sinks = nil, nil, nil
}

// totals folds the remaining decorators and returns the window's sums.
func (tp *probes) totals() simTotals {
	tp.fold()
	return tp.sum
}

// writeTrace writes spans.jsonl and layers.json into dir.
func writeTrace(dir string, tp *probes, layers map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := tp.tr.writeJSONL(filepath.Join(dir, "spans.jsonl")); err != nil {
		return err
	}
	data, err := json.MarshalIndent(layers, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(data, '\n'), 0o644)
}
