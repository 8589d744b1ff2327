package main

import (
	"fmt"
	"time"
)

// Seed streams.  Every input of a run is derived from the -seed flag as
// runner.CellSeed(seed, stream, index), one stream per purpose, the
// convention internal/experiment/seed.go documents.  The benchmark's own
// streams start at 101 so they never read as one of the experiment's.
const (
	streamFig5Request uint64 = 101 + iota
	streamMakespanRequest
	streamWarmup
	streamJobSeed
	streamJobMix
	streamArrivals
	streamSample
)

// The experiment package's streams (internal/experiment/seed.go).  The
// traced rebuilds of MissRatio and RunningTime derive replica, synthetic
// workload and channel-injector seeds exactly as the experiment package
// does, and TestTracedPathsAreTransparent holds them to it.
const (
	seedStreamReplica uint64 = 1 + iota
	seedStreamSynthetic
	seedStreamChannelA
	seedStreamChannelB
)

// setupRounds is how often a run sets its workload up; setup_s is the
// median round (plus process start), so one slow round does not move it.
const setupRounds = 5

// harness runs one workload: its input set and the calls that drive it.
type harness interface {
	// setUp builds everything the first timed call needs.  It runs
	// setupRounds times; each round replaces the previous one's state.
	setUp() error
	// tearDown releases what setUp built (servers, temporary files).
	tearDown() error
	// window issues requests until d has elapsed and returns what it
	// measured.  tp is nil for an untraced window; a traced window routes
	// every call through tp's decorators and spans instead.
	window(d time.Duration, tp *probes) (windowResult, error)
	// check verifies the outputs of every window run so far.  tp, when
	// set, receives the check's own spans.
	check(tp *probes) error
	// layers adds the workload's own per-layer metrics for the traced
	// window w.
	layers(tp *probes, w windowResult, m map[string]float64)
}

// windowResult is what one timed window measured.
type windowResult struct {
	// attempted and failed count requests (fig5 points, makespan sweeps,
	// corpus chunks, daemon jobs); firstErr describes the first failure.
	attempted, failed int
	firstErr          string
	// latMs holds one latency per completed request.
	latMs []float64
	// cycles counts the simulated communication cycles of every
	// completed request; wall is the window's length.
	cycles int64
	wall   time.Duration
	// thrJobs and thrCycles are what completed during thrWall, the part
	// of the window throughput is measured over (all of it, except for
	// the daemon's closed-loop phase).
	thrJobs   int
	thrCycles int64
	thrWall   time.Duration
	// sequential marks a closedLoop window: latMs[k] is request k, the
	// same request in every window of the run.
	sequential bool
}

func (w *windowResult) fail(err error) {
	w.failed++
	if w.firstErr == "" {
		w.firstErr = err.Error()
	}
}

// closedLoop issues requests 0, 1, 2, … one at a time — the way a caller
// of the library runs a sweep — until d has elapsed, and times each.
// do returns the simulated cycles of request k; parent is the span to
// hang the request's own spans under (0 when untraced).
func closedLoop(d time.Duration, tp *probes, name string, do func(k int, parent int64) (int64, error)) windowResult {
	w := windowResult{sequential: true}
	var root span
	if tp != nil {
		root = tp.tr.open("workload", name, 0)
	}
	start := time.Now()
	for k := 0; time.Since(start) < d; k++ {
		var sp span
		if tp != nil {
			sp = tp.tr.open("request", fmt.Sprintf("%s/%d", name, k), root.ID)
		}
		t0 := time.Now()
		cycles, err := do(k, sp.ID)
		lat := time.Since(t0)
		if tp != nil {
			tp.tr.done(sp)
			tp.fold()
		}
		w.attempted++
		if err != nil {
			w.fail(fmt.Errorf("request %d: %w", k, err))
			w.sequential = false
			continue
		}
		w.latMs = append(w.latMs, ms(lat))
		w.cycles += cycles
	}
	w.wall = time.Since(start)
	w.thrJobs, w.thrCycles, w.thrWall = len(w.latMs), w.cycles, w.wall
	if tp != nil {
		tp.tr.done(root)
	}
	return w
}

// newWorkload builds the named workload at full size; traced prepares
// it for a traced window (only the daemon must know before set-up).
func newWorkload(name string, seed uint64, traced bool) (harness, error) {
	switch name {
	case "fig5-mc":
		return newFig5(seed), nil
	case "makespan":
		return newMakespan(seed), nil
	case "corpus-quick":
		return newCorpusWorkload(seed), nil
	case "daemon-mix":
		return newDaemon(seed, traced), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// simLayers fills the per-layer metrics every simulator workload
// measures through its decorators and spans; allocBytes is the traced
// window's allocation volume.
func simLayers(tp *probes, allocBytes uint64, m map[string]float64) {
	spans := tp.tr.byName()
	t := tp.totals()
	m["sim.compile.ms"] = spans["sim.compile"].meanMs()
	m["sim.new_state.us"] = spans["sim.new_state"].meanUs()
	m["sim.reset.us"] = spans["sim.reset"].meanUs()
	cycles, runs := tp.cycles.Load(), tp.runs.Load()
	m["sim.cycles"] = float64(cycles)
	if cycles > 0 {
		m["sim.run.self_ns_per_cycle"] = (float64(spans["sim.run"].ns) - t.inHook) / float64(cycles)
	}
	if runs > 0 {
		m["sim.alloc_bytes_per_run"] = float64(allocBytes) / float64(runs)
	}
	for _, mod := range []string{"core", "fspec"} {
		s := t.sched[mod]
		p := "sched." + mod + "."
		if s.inits > 0 {
			m[p+"init.us"] = float64(s.initNs) / float64(s.inits) / 1e3
		}
		m[p+"cycle_start.ns"] = s.cycleStart.meanNs()
		m[p+"static_slot.calls"] = float64(s.static.calls)
		m[p+"static_slot.ns"] = s.static.meanNs()
		m[p+"static_slot.tx_ratio"] = ratio(s.staticTx, s.static.calls)
		m[p+"dynamic_slot.calls"] = float64(s.dynamic.calls)
		m[p+"dynamic_slot.ns"] = s.dynamic.meanNs()
		m[p+"dynamic_slot.tx_ratio"] = ratio(s.dynamicTx, s.dynamic.calls)
		m[p+"result.ns"] = s.result.meanNs()
	}
	m["slack.stolen_tx"] = float64(t.sched["core"].stolen + t.sched["fspec"].stolen)
	m["core.retx_tx"] = float64(t.sched["core"].retx)
	m["fspec.redundant_tx"] = float64(t.sched["fspec"].redundant)
	m["fault.corrupts.calls"] = float64(t.corrupts.calls)
	m["fault.corrupts.ns"] = t.corrupts.meanNs()
	m["fault.corrupt_ratio"] = ratio(t.hits, t.corrupts.calls)
	m["trace.events"] = float64(t.record.calls)
	for _, k := range traceKinds {
		m["trace.events."+k.String()] = float64(t.kinds[k])
	}
	m["trace.record.ns"] = t.record.meanNs()
	m["trace.hash.ms"] = spans["trace.hash"].meanMs()
	m["experiment.setup.ms"] = spans["experiment.setup"].meanMs()
}

// busyRatio is the share of the worker pool's capacity over wall that
// the named worker-side spans kept busy.
func busyRatio(tp *probes, workers int, wall time.Duration, names ...string) float64 {
	spans := tp.tr.byName()
	var busy int64
	for _, n := range names {
		busy += spans[n].ns
	}
	if wall <= 0 || workers <= 0 {
		return 0
	}
	return float64(busy) / (float64(workers) * float64(wall))
}

func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
