package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"github.com/flexray-go/coefficient/internal/corpus"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/trace"
)

const (
	// corpusCases is the generated corpus, about what a run gets through:
	// case costs vary widely, so a run that cycled over a smaller corpus
	// would weight its first cases twice and make throughput depend on
	// the seed.  Requests wrap around when a run is faster.
	corpusCases = 1000
	// corpusChunk is the number of cases per corpus.Run request.
	corpusChunk = 10
	// goldenCases is the size of the committed golden store.
	goldenCases = 200
)

// goldenPath is the committed quick-corpus golden store, relative to the
// repository root the benchmark runs from.
var goldenPath = filepath.Join("results", "corpus", "golden-quick.json")

// corpusWorkload is the corpus-quick workload: corpus.Generate once per
// set-up, then corpus.Run over consecutive chunks of cases under
// CoEfficient, FSPEC and the adaptive controller.
type corpusWorkload struct {
	seed     uint64
	parallel int
	cases    []*corpus.Case
	// results holds each case's first outcome; canon its canonical JSON,
	// which later runs of the case must reproduce.
	results    map[int]corpus.CaseResult
	canon      map[int][]byte
	mismatches []string
	generateMs []float64
	tp         *probes
}

func newCorpusWorkload(seed uint64) *corpusWorkload {
	return &corpusWorkload{
		seed:    seed,
		results: make(map[int]corpus.CaseResult), canon: make(map[int][]byte),
	}
}

// setUp generates the corpus and warms the run path on one case.  The
// warm-up case comes from the pinned seed's corpus, not the run's, so
// its cost does not vary with the seed (case costs vary widely).
func (c *corpusWorkload) setUp() error {
	t0 := time.Now()
	cases, err := corpus.Generate(corpus.GenOptions{Seed: c.seed, Count: corpusCases, Quick: true})
	if err != nil {
		return err
	}
	c.generateMs = append(c.generateMs, ms(time.Since(t0)))
	c.cases = cases
	warm, err := corpus.Generate(corpus.GenOptions{Seed: pinnedSeed, Count: 1, Quick: true})
	if err != nil {
		return err
	}
	_, err = corpus.Run(warm, corpus.RunOptions{Parallel: c.parallel})
	return err
}

func (c *corpusWorkload) tearDown() error { return nil }

// chunk returns request k's first case index.
func (c *corpusWorkload) chunk(k int) int { return k * corpusChunk % len(c.cases) }

func (c *corpusWorkload) window(d time.Duration, tp *probes) (windowResult, error) {
	c.tp = tp
	return closedLoop(d, tp, "corpus-quick", func(k int, parent int64) (int64, error) {
		lo := c.chunk(k)
		batch := c.cases[lo:min(lo+corpusChunk, len(c.cases))]
		var res []corpus.CaseResult
		var err error
		if tp == nil {
			res, err = corpus.Run(batch, corpus.RunOptions{Parallel: c.parallel})
		} else {
			res, err = c.traced(batch, parent)
		}
		if err != nil {
			return 0, err
		}
		return c.record(lo, res)
	}), nil
}

// record keeps a chunk's results and returns its simulated cycles.
func (c *corpusWorkload) record(lo int, res []corpus.CaseResult) (int64, error) {
	var cycles int64
	for i, r := range res {
		idx := lo + i
		if len(r.Outcomes) != len(corpus.Schedulers) {
			return 0, fmt.Errorf("case %s: %d outcomes", r.Name, len(r.Outcomes))
		}
		for _, o := range r.Outcomes {
			cycles += o.Cycles
		}
		data, err := json.Marshal(r)
		if err != nil {
			return 0, err
		}
		if prev, ok := c.canon[idx]; ok {
			if !bytes.Equal(prev, data) {
				c.mismatches = append(c.mismatches, fmt.Sprintf("case %s changed between runs", r.Name))
			}
			continue
		}
		c.canon[idx] = data
		c.results[idx] = r
	}
	return cycles, nil
}

// prefix returns the results of cases 0..n-1 in corpus order, as far as
// they are contiguous.
func (c *corpusWorkload) prefix() []corpus.CaseResult {
	var out []corpus.CaseResult
	for i := 0; ; i++ {
		r, ok := c.results[i]
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

func (c *corpusWorkload) check(tp *probes) error {
	if len(c.mismatches) > 0 {
		return errors.New(c.mismatches[0])
	}
	done := c.prefix()
	if len(done) < goldenCases {
		return fmt.Errorf("corpus: only %d cases completed, the checks need %d", len(done), goldenCases)
	}
	var sp span
	if tp != nil {
		sp = tp.tr.open("corpus.check", "", 0)
	}
	violations := corpus.CheckAll(c.cases[:len(done)], done)
	if tp != nil {
		tp.tr.done(sp)
	}
	if len(violations) > 0 {
		return fmt.Errorf("corpus: %d invariant violations, first: %s", len(violations), violations[0])
	}
	if c.seed == pinnedSeed {
		golden, err := corpus.LoadStore(goldenPath)
		if err != nil {
			return fmt.Errorf("corpus golden store: %w", err)
		}
		fresh := corpus.NewStore(corpus.GenOptions{Seed: c.seed, Count: goldenCases, Quick: true}, done[:goldenCases])
		lines, err := golden.Diff(fresh)
		if err != nil {
			return err
		}
		if len(lines) > 0 {
			return fmt.Errorf("corpus: %d differences from %s, first: %s", len(lines), goldenPath, lines[0])
		}
		canonical, err := corpus.CanonicalResults(done[:goldenCases])
		if err != nil {
			return err
		}
		if err := checkDigest("corpus-quick", c.seed, canonical); err != nil {
			return err
		}
	}
	// Any seed: one sampled chunk re-run serially must match the
	// parallel outcomes byte for byte.
	lo := c.chunk(sampleIndex(c.seed, len(done)/corpusChunk))
	again, err := corpus.Run(c.cases[lo:lo+corpusChunk], corpus.RunOptions{Parallel: 1})
	if err != nil {
		return fmt.Errorf("corpus serial re-run: %w", err)
	}
	for i, r := range again {
		data, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, c.canon[lo+i]) {
			return fmt.Errorf("corpus: case %s differs between parallel %d and 1", r.Name, runner.Workers(c.parallel))
		}
	}
	return nil
}

func (c *corpusWorkload) layers(tp *probes, w windowResult, m map[string]float64) {
	m["pool.busy_ratio"] = busyRatio(tp, runner.Workers(c.parallel), w.wall, "corpus.case")
	m["corpus.generate.ms"] = median(c.generateMs)
	m["corpus.check.ms"] = tp.tr.byName()["corpus.check"].meanMs()
}

// traced is corpus.Run rebuilt from its public pieces with every layer
// call decorated or spanned: per case Compile and sim.Compile once, per
// scheduler cell NewState → Reset → Run with a full trace recorder and
// the trace's SHA-256.
func (c *corpusWorkload) traced(cases []*corpus.Case, parent int64) ([]corpus.CaseResult, error) {
	tp := c.tp
	n := len(corpus.Schedulers)
	sizes := make([]int, len(cases))
	for i := range sizes {
		sizes[i] = n
	}
	cells, err := runner.MapBatchCtx(context.Background(), c.parallel, sizes,
		func() (*caseWorker, error) { return &caseWorker{}, nil },
		func(w *caseWorker, b, i int) (corpus.Outcome, error) {
			cs := cases[b]
			if i == 0 {
				w.span = tp.tr.open("corpus.case", cs.Name, parent)
			}
			out, err := w.cell(tp, cs, corpus.Schedulers[i])
			if err == nil && i == n-1 {
				tp.tr.done(w.span)
			}
			return out, err
		})
	if err != nil {
		return nil, err
	}
	results := make([]corpus.CaseResult, len(cases))
	for i, cs := range cases {
		hash, err := cs.Hash()
		if err != nil {
			return nil, err
		}
		results[i] = corpus.CaseResult{Name: cs.Name, Hash: hash, Outcomes: cells[i*n : (i+1)*n : (i+1)*n]}
	}
	return results, nil
}

// caseWorker caches the compiled artifact of the case it last ran, as
// corpus.Run's workers do.
type caseWorker struct {
	c        *corpus.Case
	set      signal.Set
	compiled *sim.Compiled
	span     span
}

func (w *caseWorker) cell(tp *probes, c *corpus.Case, schedName string) (corpus.Outcome, error) {
	if w.c != c {
		sp := tp.tr.open("experiment.setup", c.Name, w.span.ID)
		set, cluster, setup, err := c.Compile()
		tp.tr.done(sp)
		if err != nil {
			return corpus.Outcome{}, err
		}
		sp = tp.tr.open("sim.compile", c.Name, w.span.ID)
		compiled, err := sim.Compile(sim.Options{
			Config: setup.Config, Cluster: cluster, Workload: set, BitRate: setup.BitRate,
			Scenario: c.Scenario, Timing: timingOptions(c),
			Mode: sim.Streaming, Duration: c.Horizon(),
		})
		tp.tr.done(sp)
		if err != nil {
			return corpus.Outcome{}, err
		}
		w.c, w.set, w.compiled = c, set, compiled
	}
	sched, err := c.Scheduler(schedName, w.set)
	if err != nil {
		return corpus.Outcome{}, err
	}
	key := c.Name + "/" + schedName
	sp := tp.tr.open("sim.new_state", key, w.span.ID)
	state, err := w.compiled.NewState(tp.wrapScheduler(sched))
	tp.tr.done(sp)
	if err != nil {
		return corpus.Outcome{}, err
	}
	rec := trace.New()
	sp = tp.tr.open("sim.reset", key, w.span.ID)
	err = state.Reset(sim.ReplicaOptions{Seed: c.SimSeed, Sink: tp.wrapSink(rec)})
	tp.tr.done(sp)
	if err != nil {
		return corpus.Outcome{}, err
	}
	sp = tp.tr.open("sim.run", key, w.span.ID)
	res, err := state.Run()
	tp.tr.done(sp)
	if err != nil {
		return corpus.Outcome{}, err
	}
	tp.cycles.Add(res.Cycles)
	tp.runs.Add(1)
	sp = tp.tr.open("trace.hash", key, w.span.ID)
	h := sha256.New()
	err = rec.WriteJSON(h)
	tp.tr.done(sp)
	if err != nil {
		return corpus.Outcome{}, err
	}
	return outcomeOf(res, hex.EncodeToString(h.Sum(nil))), nil
}

// timingOptions maps a case's timing spec onto the simulator's timing
// layer, as corpus.Run does.
func timingOptions(c *corpus.Case) *sim.TimingOptions {
	if c.Timing == nil {
		return nil
	}
	return &sim.TimingOptions{
		DriftPPM:         c.Timing.DriftPPM,
		JitterMicroticks: c.Timing.JitterMicroticks,
		SyncEnabled:      c.Timing.SyncEnabled,
		Guardians:        c.Timing.Guardians,
	}
}

// outcomeOf is corpus.Run's projection of a run onto an Outcome.
func outcomeOf(res sim.Result, traceHash string) corpus.Outcome {
	r := res.Report
	return corpus.Outcome{
		Scheduler:        res.Scheduler,
		StaticDelivered:  r.Delivered[metrics.Static],
		StaticDropped:    r.Dropped[metrics.Static],
		DynamicDelivered: r.Delivered[metrics.Dynamic],
		DynamicDropped:   r.Dropped[metrics.Dynamic],
		StaticMissRatio:  r.DeadlineMissRatio[metrics.Static],
		DynamicMissRatio: r.DeadlineMissRatio[metrics.Dynamic],
		OverallMissRatio: r.OverallMissRatio(),
		Faults:           r.Faults,
		Retransmissions:  r.Retransmissions,
		BandwidthUtil:    r.BandwidthUtilization,
		RawUtil:          r.RawUtilization,
		Cycles:           res.Cycles,
		Replans:          r.Adaptive.Replans,
		Failovers:        r.Adaptive.Failovers,
		Shed:             r.Adaptive.ShedMessages,
		GuardianBlocks:   r.Sync.GuardianBlocks,
		SyncLossEvents:   r.Sync.SyncLossEvents,
		Halts:            r.Sync.Halts,
		TraceHash:        traceHash,
	}
}
