package sim

import (
	"fmt"

	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/node"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/topology"
	"github.com/flexray-go/coefficient/internal/trace"
)

// Compiled is the immutable, replica-independent half of a simulation:
// validated options with defaults applied, the compiled dispatch tables
// (slot→message, per-message wire timing) and the resolved pLatestTx —
// everything that depends only on (config, cluster, workload), not on
// the seed.  Build it once with Compile, then derive any number of
// RunStates from it; a Compiled is safe for concurrent use by NewState
// on multiple goroutines because every field is read-only after Compile
// returns.
type Compiled struct {
	opts Options
	// tables is an environment without ECUs: the dispatch tables every
	// state shares.
	tables *Env
	// staticByNode maps node ID → static frame IDs, for building fresh
	// per-state ECUs.
	staticByNode map[int][]int
}

// Compile validates the options, applies the defaults (bit rate and a
// dual-channel bus sized to the workload) and builds the immutable
// artifact shared by all replicas: the dispatch tables and the resolved
// pLatestTx.  It builds no ECUs; each NewState owns its own.
// Per-replica concerns must be left unset: injectors and Sink belong to
// ReplicaOptions (the Seed field is ignored and replaced per replica by
// Reset).
func Compile(opts Options) (*Compiled, error) {
	if opts.InjectorA != nil || opts.InjectorB != nil {
		return nil, fmt.Errorf("%w: Compile: injectors are per-replica; pass them via ReplicaOptions", ErrBadOptions)
	}
	if opts.Sink != nil {
		return nil, fmt.Errorf("%w: Compile: trace sinks are per-replica; pass them via ReplicaOptions", ErrBadOptions)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.BitRate == 0 {
		opts.BitRate = frame.DefaultBitRate
	}
	if len(opts.Cluster.Nodes) == 0 {
		opts.Cluster = topology.DualChannelBus(workloadNodes(opts.Workload))
	}
	if err := opts.Cluster.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadOptions, err)
	}

	cfg := opts.Config
	env := &Env{
		Cfg: cfg,
		Set: opts.Workload,
	}
	env.compile(opts.BitRate)
	staticByNode := make(map[int][]int)
	var maxDyn timebase.Macrotick
	for i := range opts.Workload.Messages {
		m := &opts.Workload.Messages[i]
		if _, ok := opts.Cluster.Node(m.Node); !ok {
			return nil, fmt.Errorf("%w: message %q on unknown node %d",
				ErrBadOptions, m.Name, m.Node)
		}
		switch m.Kind {
		case signal.Periodic:
			staticByNode[m.Node] = append(staticByNode[m.Node], m.ID)
			if env.FrameDuration(m) > cfg.StaticSlotLen {
				return nil, fmt.Errorf("%w: static message %q (%d bits) does not fit a %d-macrotick slot at %d bit/s",
					ErrBadOptions, m.Name, m.Bits, cfg.StaticSlotLen, opts.BitRate)
			}
		case signal.Aperiodic:
			if d := env.FrameDuration(m); d > maxDyn {
				maxDyn = d
			}
		}
	}
	env.LatestTx = cfg.LatestTx
	if env.LatestTx == 0 {
		env.LatestTx = cfg.DeriveLatestTx(maxDyn)
	}
	return &Compiled{opts: opts, tables: env, staticByNode: staticByNode}, nil
}

// ReplicaOptions is the per-replica half of a batched run: the seed and
// the optional injectors and trace sink.  The caller owns the injectors
// and is expected to Reseed and reuse one pair across replicas so their
// memoized probability caches survive (fault.Reseeder); nil injectors
// mean a fault-free channel and a nil Sink discards events.
type ReplicaOptions struct {
	// Seed drives every random stream of the replica: arrivals, CRC
	// outcomes, clock drift and the scenario timeline.
	Seed uint64
	// InjectorA and InjectorB inject transient faults per channel.
	InjectorA, InjectorB fault.Injector
	// Sink optionally receives every bus event.
	Sink trace.Sink
}

// ReplicaResettable is implemented by schedulers that can rewind to
// their just-initialized state without reallocating, so a batched run
// reuses one scheduler across replicas.  After ResetReplica the
// scheduler must behave exactly as if Init had just returned on the same
// environment.  Schedulers without it are re-Init-ed per replica.
type ReplicaResettable interface {
	ResetReplica() error
}

// RunState is the mutable half of a simulation: one engine, scheduler
// and environment reused across replicas.  The cycle is
//
//	state, _ := compiled.NewState(sched)
//	for _, seed := range seeds {
//	    state.Reset(ReplicaOptions{Seed: seed, ...})
//	    res, err := state.Run()
//	}
//
// and sim.Run is this cycle with a single seed.  Reset rewinds arenas
// by truncation, zeroes the CHI buffers and counters and re-seeds every
// RNG in place, so the steady state of a plain replica loop (no scenario,
// no timing layer) allocates nothing.  A RunState is single-goroutine;
// run different states concurrently.
type RunState struct {
	eng   *engine
	noneA fault.None
	noneB fault.None
	// initialized is set once the scheduler's Init succeeded; until then
	// Reset calls Init rather than ResetReplica.
	initialized bool
	// armed flips on Reset and off on Run, so a stale state cannot be
	// run twice against one replica's seed.
	armed bool
}

// NewState builds a fresh mutable run state against the compiled
// artifact: a new environment sharing the immutable dispatch tables but
// owning fresh ECUs, a new collector and releaser.  The scheduler is
// bound here and initialized by the first Reset, once the replica's sink
// and timing layer are installed in the environment.
func (c *Compiled) NewState(sched Scheduler) (*RunState, error) {
	env := new(Env)
	*env = *c.tables
	maxNode := 0
	for _, n := range c.opts.Cluster.Nodes {
		maxNode = max(maxNode, n.ID)
	}
	env.ecuByID = make([]*node.ECU, maxNode+1)
	for _, n := range c.opts.Cluster.Nodes {
		env.ecuByID[n.ID] = node.NewECU(n.ID, c.staticByNode[n.ID])
	}
	// Walking the ID-indexed table yields the ECUs in ascending ID order.
	env.ecuOrder = make([]*node.ECU, 0, len(c.opts.Cluster.Nodes))
	for _, ecu := range env.ecuByID {
		if ecu != nil {
			env.ecuOrder = append(env.ecuOrder, ecu)
		}
	}

	eng := &engine{
		opts:     c.opts,
		sched:    sched,
		env:      env,
		col:      metrics.NewCollector(c.opts.Config),
		latestTx: env.LatestTx,
		crcRNG:   fault.NewRNG(0), // re-seeded per replica by Reset
	}
	env.Gauges = eng.col.Adaptive()
	eng.rel = newReleaser(c.opts, env)
	return &RunState{eng: eng}, nil
}

// Reset arms the state for one replica with the given seed: it installs
// the sink and injectors (scenario channels override the injectors),
// rebuilds the node watch and timing layer, re-seeds the CRC and arrival
// RNGs, zeroes the CHI buffers and metrics and rewinds the releaser.  It
// readies the scheduler last, so the scheduler sees the replica's sink,
// cleared sync-loss flag and gauges: the first Reset calls Init, later
// ones call ResetReplica when the scheduler implements ReplicaResettable
// and Init otherwise.  Because every piece is rewound, the following Run
// depends only on the compiled options and ro, never on the replicas the
// state ran before.
// Construct-only branches (scenario compile, timing layer) allocate and
// are outside the alloc-free replica contract; the flagged constructs
// live in the unmarked helpers below.
//
//perf:hotpath
func (st *RunState) Reset(ro ReplicaOptions) error {
	eng := st.eng
	eng.opts.Seed = ro.Seed

	eng.sink = ro.Sink
	if eng.sink == nil {
		eng.sink = trace.NullSink{}
	}
	eng.env.Trace = eng.sink

	injA, injB := ro.InjectorA, ro.InjectorB
	if injA == nil {
		st.noneA.Reseed(0)
		injA = &st.noneA
	}
	if injB == nil {
		st.noneB.Reseed(0)
		injB = &st.noneB
	}
	eng.opts.InjectorA, eng.opts.InjectorB = injA, injB

	eng.scn = nil
	if eng.opts.Scenario != nil {
		if err := st.resetScenario(ro.Seed); err != nil {
			return err
		}
	}

	eng.watchedNodes, eng.nodeDown = nil, nil
	if eng.scn != nil {
		eng.initNodeWatch()
	}

	eng.injA, eng.injB = eng.opts.InjectorA, eng.opts.InjectorB
	eng.tvA, _ = eng.injA.(fault.TimeVarying)
	eng.tvB, _ = eng.injB.(fault.TimeVarying)
	eng.crcRNG.Seed(ro.Seed ^ seedCRC)
	st.resetTiming()

	for _, ecu := range eng.env.OrderedECUs() {
		ecu.Reset()
	}
	eng.col.Reset()
	eng.rel.reset(ro.Seed)
	eng.total, eng.done = 0, 0
	if err := st.resetScheduler(); err != nil {
		return err
	}
	st.armed = true
	return nil
}

// Run executes the replica armed by the last Reset.
func (st *RunState) Run() (Result, error) {
	if !st.armed {
		return Result{}, errNotArmed
	}
	st.armed = false
	return st.eng.run()
}

var errNotArmed = fmt.Errorf("%w: RunState.Run without a preceding Reset", ErrBadOptions)

// resetScenario recompiles the scripted fault timeline for the replica
// seed.  Scenario channels override the replica's injectors so the
// scripted timeline is the single source of channel fault truth.
// Scenario replicas allocate here (a fresh Runtime per seed); the
// alloc-free contract covers scenario-less runs.
func (st *RunState) resetScenario(seed uint64) error {
	eng := st.eng
	rt, err := eng.opts.Scenario.Compile(eng.opts.Config, seed)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadOptions, err)
	}
	eng.scn = rt
	if inj := rt.Injector(frame.ChannelA); inj != nil {
		eng.opts.InjectorA = inj
	}
	if inj := rt.Injector(frame.ChannelB); inj != nil {
		eng.opts.InjectorB = inj
	}
	return nil
}

// resetTiming clears the sync-loss flag and rebuilds the local-clock
// layer for the new seed.  The layer's state graph (per-node clocks, POC,
// guardians) is rebuilt from scratch — timing replicas allocate and are
// outside the alloc-free contract, like scenario replicas.
// Scenario-scripted timing faults need the layer even when the options
// leave it off.
func (st *RunState) resetTiming() {
	eng := st.eng
	eng.timing = nil
	eng.env.SyncLost = false
	if eng.opts.Timing == nil && (eng.scn == nil || !eng.scn.HasTimingFaults()) {
		return
	}
	topts := TimingOptions{}
	if eng.opts.Timing != nil {
		topts = *eng.opts.Timing
	}
	eng.timing = newTimingState(topts, eng)
}

// resetScheduler readies the scheduler for the next replica: Init on the
// first Reset, then an in-place ResetReplica when the scheduler supports
// it and a fresh Init otherwise.
func (st *RunState) resetScheduler() error {
	eng := st.eng
	if rr, ok := eng.sched.(ReplicaResettable); ok && st.initialized {
		if err := rr.ResetReplica(); err != nil {
			return fmt.Errorf("scheduler reset: %w", err)
		}
		return nil
	}
	if err := eng.sched.Init(eng.env); err != nil {
		return fmt.Errorf("scheduler init: %w", err)
	}
	st.initialized = true
	return nil
}
