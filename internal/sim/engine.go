package sim

import (
	"fmt"
	"time"

	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/node"
	"github.com/flexray-go/coefficient/internal/scenario"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/topology"
	"github.com/flexray-go/coefficient/internal/trace"
)

// Mode selects how a run terminates.
type Mode int

// Run modes.
const (
	// Streaming simulates a fixed bus-time horizon with hard deadlines:
	// expired instances are dropped and counted as misses.  Used for the
	// latency / utilization / miss-ratio experiments (Figures 3-5).
	Streaming Mode = iota + 1
	// Batch queues a fixed number of instances per message and runs until
	// everything is delivered; instances never expire.  The makespan is
	// the paper's "running time" (Figures 1-2).
	Batch
)

// Options configures one simulation run.  What the paper's evaluation
// (Section IV) holds fixed is not an option: CHI buffers are unbounded,
// metrics count from the first cycle, and each sporadic message arrives
// strictly once per period after a random phase.
type Options struct {
	// Config is the cluster timing configuration.
	Config timebase.Config
	// Cluster is the topology (defaults to a 10-node dual-channel bus).
	Cluster topology.Cluster
	// Workload is the validated message set.
	Workload signal.Set
	// BitRate is the bus speed in bits/s (defaults to frame.DefaultBitRate).
	BitRate int64
	// InjectorA and InjectorB inject transient faults per channel.  Nil
	// means fault-free.
	InjectorA, InjectorB fault.Injector
	// Seed drives the dynamic arrival processes.
	Seed uint64
	// Scenario optionally scripts a time-varying fault timeline: BER
	// steps/ramps and burst episodes per channel, channel blackouts, and
	// node crash/recovery events — the only way to take a node down (the
	// paper's "physical damages [that] cause ... long-term
	// malfunctioning"): a down node stops transmitting, and the instances
	// it would have sent pile up and expire, which the metrics count as
	// misses.  Channels the scenario models get a deterministic injector
	// derived from Seed, overriding InjectorA/InjectorB.
	Scenario *scenario.Scenario
	// Timing optionally gives every node a local drifting clock with FTM
	// synchronization, POC degradation states and bus guardians.  Nil
	// keeps the perfect shared macrotick — unless the scenario scripts
	// timing faults, which switch the layer on with zero-value options.
	Timing *TimingOptions
	// Mode selects Streaming or Batch.
	Mode Mode
	// Duration is the simulated horizon (Streaming).
	Duration time.Duration
	// BatchInstances is the number of instances per message (Batch).
	BatchInstances int
	// Sink optionally receives every bus event.  Use trace.New() to
	// retain events, a *trace.CountingSink for zero-allocation counting,
	// or leave it nil to discard events entirely.
	Sink trace.Sink
}

func (o *Options) validate() error {
	if err := o.Config.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadOptions, err)
	}
	if err := o.Workload.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadOptions, err)
	}
	if o.Scenario != nil {
		if err := o.Scenario.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadOptions, err)
		}
	}
	if o.Timing != nil {
		if err := o.Timing.validate(); err != nil {
			return err
		}
	}
	switch o.Mode {
	case Streaming:
		if o.Duration <= 0 {
			return fmt.Errorf("%w: streaming needs a positive duration", ErrBadOptions)
		}
	case Batch:
		if o.BatchInstances <= 0 {
			return fmt.Errorf("%w: batch needs BatchInstances > 0", ErrBadOptions)
		}
	default:
		return fmt.Errorf("%w: unknown mode %d", ErrBadOptions, int(o.Mode))
	}
	for _, m := range o.Workload.Static() {
		if m.ID > o.Config.StaticSlots {
			return fmt.Errorf("%w: static frame ID %d exceeds %d static slots",
				ErrBadOptions, m.ID, o.Config.StaticSlots)
		}
	}
	for _, m := range o.Workload.Dynamic() {
		if m.ID <= o.Config.StaticSlots {
			return fmt.Errorf("%w: dynamic frame ID %d inside static slot range 1..%d",
				ErrBadOptions, m.ID, o.Config.StaticSlots)
		}
	}
	return nil
}

// Result is the outcome of a run.
type Result struct {
	// Report holds the metrics summary.
	Report metrics.Report
	// Cycles is the number of communication cycles simulated.
	Cycles int64
	// FaultsA and FaultsB are the per-channel injector statistics.
	FaultsA, FaultsB fault.Stats
	// Scheduler is the policy name.
	Scheduler string
}

// Run executes one simulation: the one-replica case of Compile →
// NewState → Reset → Run, with the per-replica options (Seed, injectors,
// Sink) moved into the replica.
func Run(opts Options, sched Scheduler) (Result, error) {
	ro := ReplicaOptions{Seed: opts.Seed, InjectorA: opts.InjectorA, InjectorB: opts.InjectorB, Sink: opts.Sink}
	opts.Seed, opts.InjectorA, opts.InjectorB, opts.Sink = 0, nil, nil, nil
	c, err := Compile(opts)
	if err != nil {
		return Result{}, err
	}
	st, err := c.NewState(sched)
	if err != nil {
		return Result{}, err
	}
	if err := st.Reset(ro); err != nil {
		return Result{}, err
	}
	return st.Run()
}

// engine is the per-run state.
type engine struct {
	opts  Options
	sched Scheduler
	env   *Env
	col   *metrics.Collector
	// sink receives every bus event; never nil (NullSink when tracing is
	// off), so the hot path records unconditionally with no nil checks.
	sink trace.Sink

	// injA/injB are the per-channel injectors after any scenario
	// override, and tvA/tvB their time-varying views — the type
	// assertion is done once here instead of per transmission.
	injA, injB fault.Injector
	tvA, tvB   fault.TimeVarying

	// rel generates instance releases.
	rel *releaser

	// total and done track batch completion.
	total, done int64

	// latestTx is the resolved pLatestTx.
	latestTx int

	// scn is the compiled fault-scenario timeline (nil without one).
	scn *scenario.Runtime
	// timing is the local-clock / guardian layer (nil without one).
	timing *timingState
	// crcRNG draws the bit flips of the CRC receive path; consumed only
	// on corrupted frames, so fault-free runs stay stream-identical.
	crcRNG *fault.RNG
	// watchedNodes lists the nodes the scenario scripts outages for, for
	// node-down/node-up trace transitions; nodeDown is their last state.
	watchedNodes []int
	nodeDown     map[int]bool
}

func workloadNodes(set signal.Set) int {
	maxNode := 0
	for _, m := range set.Messages {
		if m.Node > maxNode {
			maxNode = m.Node
		}
	}
	return maxNode + 1
}

// run walks communication cycles until the mode's termination condition.
func (e *engine) run() (Result, error) {
	cfg := e.opts.Config
	var endCycle int64
	if e.opts.Mode == Streaming {
		horizon := cfg.FromDuration(e.opts.Duration)
		endCycle = int64(horizon / cfg.MacroPerCycle)
		if endCycle < 1 {
			endCycle = 1
		}
	} else {
		endCycle = maxBatchCycles
		e.total = e.rel.enqueueBatch()
	}

	lastProgress := int64(0)
	doneAtLastProgress := int64(-1)
	for cycle := int64(0); cycle < endCycle; cycle++ {
		e.runCycle(cycle)

		if e.opts.Mode == Batch {
			if e.done >= e.total {
				return e.result(cycle + 1), nil
			}
			if e.done != doneAtLastProgress {
				doneAtLastProgress = e.done
				lastProgress = cycle
			} else if cycle-lastProgress > stallCycles {
				return Result{}, fmt.Errorf("%w: %d of %d instances after %d cycles",
					ErrStalled, e.done, e.total, cycle+1)
			}
		}
	}
	if e.opts.Mode == Batch && e.done < e.total {
		return Result{}, fmt.Errorf("%w: %d of %d instances after maxBatchCycles=%d",
			ErrStalled, e.done, e.total, maxBatchCycles)
	}
	return e.result(endCycle), nil
}

// Batch-run safety nets: stallCycles is the no-progress limit and
// maxBatchCycles caps the run length.
const (
	stallCycles    = 20000
	maxBatchCycles = 1 << 20
)

// runCycle simulates one communication cycle — the steady-state loop
// body the allocation-regression tests measure.
//
//lint:deterministic
func (e *engine) runCycle(cycle int64) {
	cfg := e.opts.Config
	now := cfg.CycleStart(cycle)
	if e.opts.Mode == Streaming {
		e.rel.enqueueCycle(cycle)
		e.dropExpired(now)
	}
	e.watchNodes(now)
	if e.timing != nil {
		e.timing.cycleStart(e, cycle, now)
	}
	e.sched.CycleStart(cycle, now)

	e.runStaticSegment(cycle)
	e.runDynamicSegment(cycle)

	// FTM sync runs per double-cycle in the network idle time of the
	// odd cycle, after all traffic of the cycle.
	if e.timing != nil && cycle%2 == 1 {
		nit := cfg.CycleStart(cycle+1) - cfg.NetworkIdleLen()
		e.timing.endOfDoubleCycle(e, cycle, nit)
	}

	e.col.ChannelTime(2 * cfg.MacroPerCycle)
}

// bothChannels is the fixed channel walk order of every segment, hoisted
// so the per-cycle loops do not rebuild a slice literal.
var bothChannels = [2]frame.Channel{frame.ChannelA, frame.ChannelB}

func (e *engine) result(cycles int64) Result {
	return Result{
		Report:    e.col.Report(),
		Cycles:    cycles,
		FaultsA:   e.opts.InjectorA.Stats(),
		FaultsB:   e.opts.InjectorB.Stats(),
		Scheduler: e.sched.Name(),
	}
}

// runStaticSegment walks the TDMA slots of one cycle on both channels.
//
//perf:hotpath
func (e *engine) runStaticSegment(cycle int64) {
	cfg := e.opts.Config
	cycleStart := cfg.CycleStart(cycle)
	for slot := 1; slot <= cfg.StaticSlots; slot++ {
		slotStart := cycleStart + timebase.Macrotick(slot-1)*cfg.StaticSlotLen
		ownerNode := -1
		if m := e.env.StaticMsg(slot); m != nil {
			ownerNode = m.Node
		}
		for _, ch := range bothChannels {
			// A scripted babbling idiot drives every slot it does not
			// own; uncontained, it collides with the slot's legitimate
			// frame.
			collision := false
			if e.timing != nil {
				collision = e.timing.babbleCollision(e, cycle, slot, ch, slotStart, ownerNode)
			}
			tx := e.sched.StaticSlot(ch, cycle, slot, slotStart)
			if tx == nil {
				continue
			}
			if err := e.checkStaticTx(tx, ch); err != nil {
				// Protocol violation by the scheduler is a
				// programming error; drop the transmission and
				// record it so tests catch it.
				e.recordInvalid(tx, ch, slotStart, err)
				continue
			}
			forced := ""
			if e.timing != nil {
				blocked, f := e.timing.staticGate(tx.Instance.Msg.Node, slotStart)
				if blocked {
					e.timing.gauges.GuardianBlock()
					e.timing.monitor.ObserveContainment()
					e.record(trace.Event{
						Time: slotStart, Kind: trace.EventGuardianBlock,
						FrameID: tx.Instance.Msg.ID, Seq: tx.Instance.Seq,
						Node: tx.Instance.Msg.Node, Channel: ch, Detail: "misaligned",
					})
					e.sched.Result(tx, false, slotStart+tx.Duration)
					continue
				}
				forced = f
			}
			if collision {
				forced = "babble-collision"
			}
			e.transmit(tx, ch, slotStart, forced)
		}
	}
}

func (e *engine) checkStaticTx(tx *Transmission, ch frame.Channel) error {
	if err := tx.validate(e.env); err != nil {
		return err
	}
	if tx.Duration > e.opts.Config.StaticSlotLen {
		return fmt.Errorf("%w: frame %d macroticks exceeds static slot %d",
			ErrBadTransmission, tx.Duration, e.opts.Config.StaticSlotLen)
	}
	if !e.env.Attached(tx.Instance.Msg.Node, ch) {
		return fmt.Errorf("%w: node %d not attached to channel %v",
			ErrBadTransmission, tx.Instance.Msg.Node, ch)
	}
	return nil
}

// runDynamicSegment walks the FTDMA minislots of one cycle, per channel.
//
//perf:hotpath
func (e *engine) runDynamicSegment(cycle int64) {
	cfg := e.opts.Config
	if cfg.Minislots == 0 {
		return
	}
	segStart := cfg.DynamicSegmentStart(cycle)
	for _, ch := range bothChannels {
		minislot := 1
		slotCounter := cfg.StaticSlots + 1
		for minislot <= cfg.Minislots {
			now := segStart + timebase.Macrotick(minislot-1)*cfg.MinislotLen
			remaining := cfg.Minislots - minislot + 1
			var tx *Transmission
			if minislot <= e.latestTx {
				tx = e.sched.DynamicSlot(ch, cycle, slotCounter, minislot, remaining, now)
			}
			if tx == nil {
				minislot++
				slotCounter++
				continue
			}
			need := cfg.MinislotsForFrame(tx.Duration)
			if err := e.checkDynamicTx(tx, ch, need, remaining); err != nil {
				e.recordInvalid(tx, ch, now, err)
				minislot++
				slotCounter++
				continue
			}
			e.transmit(tx, ch, now+cfg.MinislotActionPointOffset, "")
			minislot += need
			slotCounter++
		}
	}
}

func (e *engine) checkDynamicTx(tx *Transmission, ch frame.Channel, need, remaining int) error {
	if err := tx.validate(e.env); err != nil {
		return err
	}
	if need > remaining {
		return fmt.Errorf("%w: needs %d minislots, %d remain", ErrBadTransmission, need, remaining)
	}
	if !e.env.Attached(tx.Instance.Msg.Node, ch) {
		return fmt.Errorf("%w: node %d not attached to channel %v",
			ErrBadTransmission, tx.Instance.Msg.Node, ch)
	}
	return nil
}

// nodeAlive reports whether the node is transmitting at t: no scripted
// scenario interval holds it down.
//
//perf:hotpath
func (e *engine) nodeAlive(nodeID int, t timebase.Macrotick) bool {
	return e.scn == nil || !e.scn.NodeDown(nodeID, t)
}

// initNodeWatch arms node-down/node-up trace transitions at cycle starts
// for the nodes the scenario scripts outages for, in ascending ID order.
func (e *engine) initNodeWatch() {
	e.watchedNodes = e.scn.NodeIDs()
	e.nodeDown = make(map[int]bool, len(e.watchedNodes))
}

// watchNodes records liveness transitions of watched nodes at `now`.
func (e *engine) watchNodes(now timebase.Macrotick) {
	for _, id := range e.watchedNodes {
		down := !e.nodeAlive(id, now)
		if down == e.nodeDown[id] {
			continue
		}
		e.nodeDown[id] = down
		kind := trace.EventNodeUp
		if down {
			kind = trace.EventNodeDown
		}
		e.record(trace.Event{Time: now, Kind: kind, Node: id})
	}
}

// recordInvalid traces a rejected transmission, tolerating schedulers
// broken enough to hand over nil instances.
func (e *engine) recordInvalid(tx *Transmission, ch frame.Channel, at timebase.Macrotick, err error) {
	ev := trace.Event{
		Time: at, Kind: trace.EventDrop,
		Channel: ch, Detail: "invalid: " + err.Error(),
	}
	if tx.Instance != nil && tx.Instance.Msg != nil {
		ev.FrameID = tx.Instance.Msg.ID
		ev.Node = tx.Instance.Msg.Node
	}
	e.record(ev)
}

// transmit puts a frame on the wire at `start`, injects faults, updates
// metrics and informs the scheduler.  forced is a non-empty fault detail
// when the timing layer already doomed the transmission (babble collision,
// misalignment); the injector is then not consulted.
//
//perf:hotpath
func (e *engine) transmit(tx *Transmission, ch frame.Channel, start timebase.Macrotick, forced string) {
	in := tx.Instance
	m := in.Msg
	end := start + tx.Duration

	// A permanently failed node leaves its slot silent; the scheduler
	// observes the failure like any corrupted transmission.
	if !e.nodeAlive(m.Node, start) {
		e.record(trace.Event{
			Time: start, Kind: trace.EventDrop, FrameID: m.ID, Seq: in.Seq,
			Node: m.Node, Channel: ch, Detail: "node-failed",
		})
		e.sched.Result(tx, false, end)
		return
	}
	// A node degraded to normal-passive or halt keeps the bus clean by
	// not transmitting at all; like a failed node, its slot stays silent.
	if e.timing != nil {
		if detail := e.timing.silenced(m.Node); detail != "" {
			e.record(trace.Event{
				Time: start, Kind: trace.EventDrop, FrameID: m.ID, Seq: in.Seq,
				Node: m.Node, Channel: ch, Detail: detail,
			})
			e.sched.Result(tx, false, end)
			return
		}
	}
	in.Attempts++

	e.record(trace.Event{
		Time: start, Kind: trace.EventTxStart, FrameID: m.ID, Seq: in.Seq,
		Node: m.Node, Channel: ch, Detail: tx.Detail,
	})
	if tx.Retx {
		e.col.Retransmission()
		e.record(trace.Event{
			Time: start, Kind: trace.EventRetransmit, FrameID: m.ID, Seq: in.Seq,
			Node: m.Node, Channel: ch,
		})
	}
	e.col.RawBusy(tx.Duration)

	inj, tv := e.injA, e.tvA
	if ch == frame.ChannelB {
		inj, tv = e.injB, e.tvB
	}
	var ok bool
	detail := ""
	blackedOut := e.scn != nil && e.scn.BlackedOut(ch, start)
	switch {
	case blackedOut:
		// A blacked-out channel loses every frame; the injector is not
		// consulted (its statistics cover transient faults only).
		ok = false
		detail = "blackout"
	case forced != "":
		// The timing layer already doomed the frame (babble collision or
		// misaligned start): receivers never see a valid frame boundary.
		ok = false
		detail = forced
	default:
		bits := e.env.WireBits(m)
		corrupted := false
		if tv != nil {
			corrupted = tv.CorruptsAt(bits, start)
		} else {
			corrupted = inj.Corrupts(bits)
		}
		ok = !corrupted
		if corrupted {
			// The receive path decides the corrupted frame's fate by
			// checksum over a real bit-flipped wire image, not by fiat.
			ok, detail = e.crcOutcome(m, ch, start)
		}
	}
	if !ok {
		e.col.Fault()
		e.record(trace.Event{
			Time: end, Kind: trace.EventFault, FrameID: m.ID, Seq: in.Seq,
			Node: m.Node, Channel: ch, Detail: detail,
		})
	} else if !in.Done {
		in.Done = true
		in.Completion = end
		e.col.BusBusy(tx.Duration)
		e.col.PayloadDelivered(m.Bits)
		e.col.DeliveredFrame(kindOf(m), m.ID, in.Release, end, in.Deadline)
		e.done++
		e.record(trace.Event{
			Time: end, Kind: trace.EventTxEnd, FrameID: m.ID, Seq: in.Seq,
			Node: m.Node, Channel: ch, Detail: tx.Detail,
		})
		if in.Deadline != node.NoDeadline && end > in.Deadline {
			e.record(trace.Event{
				Time: end, Kind: trace.EventDeadlineMiss, FrameID: m.ID, Seq: in.Seq,
				Node: m.Node, Channel: ch,
			})
		}
	}
	e.sched.Result(tx, ok, end)
}

// dropExpired abandons instances whose deadline passed.
// Iteration is in node-ID order so the drop events land in the trace in
// a deterministic sequence (map order would reshuffle them every run).
func (e *engine) dropExpired(now timebase.Macrotick) {
	for _, ecu := range e.env.OrderedECUs() {
		for _, in := range ecu.DropExpiredStatic(now) {
			e.dropInstance(in, now)
		}
		for _, in := range ecu.DropExpiredDynamic(now) {
			e.dropInstance(in, now)
		}
	}
}

func (e *engine) dropInstance(in *node.Instance, now timebase.Macrotick) {
	e.col.Dropped(kindOf(in.Msg))
	e.done++ // dropped counts as resolved for batch accounting
	e.record(trace.Event{
		Time: now, Kind: trace.EventDrop, FrameID: in.Msg.ID, Seq: in.Seq,
		Node: in.Msg.Node,
	})
	e.sched.InstanceDropped(in, now)
}

//
//perf:hotpath
func (e *engine) record(ev trace.Event) {
	e.sink.Record(ev)
}

func kindOf(m *signal.Message) metrics.SegmentKind {
	if m.Kind == signal.Periodic {
		return metrics.Static
	}
	return metrics.Dynamic
}
