// Package sim is the discrete-event FlexRay cluster simulator.  It walks
// communication cycles macrotick-accurately — static TDMA slots, then the
// FTDMA dynamic segment, per channel — injects transient faults, keeps the
// CHI buffers of every ECU fed with released message instances, and defers
// every *policy* decision (what to put in a slot) to a Scheduler
// implementation: the FSPEC baseline or the CoEfficient scheduler.
package sim

import (
	"errors"
	"fmt"

	"github.com/flexray-go/coefficient/internal/adapt"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/node"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/topology"
	"github.com/flexray-go/coefficient/internal/trace"
)

// Errors returned by the engine.
var (
	// ErrBadTransmission is returned when a scheduler returns a
	// transmission that violates protocol constraints (frame too long for
	// the slot, node not attached to the channel, FTDMA window exceeded).
	ErrBadTransmission = errors.New("sim: invalid transmission")
	// ErrBadOptions is returned for inconsistent run options.
	ErrBadOptions = errors.New("sim: invalid options")
	// ErrStalled is returned when a batch run stops making progress.
	ErrStalled = errors.New("sim: batch run stalled")
)

// Env is the read-mostly world handed to a Scheduler at Init: cluster
// timing, the workload, the ECUs with their CHI buffers, and frame timing
// helpers.  Schedulers reach messages and ECUs through the accessors
// (StaticMsg, DynamicMsg, ECU, OrderedECUs) and manipulate the ECU queues
// directly (pop, requeue) — the engine owns time, the wire, fault
// injection and bookkeeping.
type Env struct {
	// Cfg is the cluster timing configuration.
	Cfg timebase.Config
	// BitRate is the bus speed in bits/s.
	BitRate int64
	// Set is the workload.
	Set signal.Set
	// LatestTx is the resolved pLatestTx for the dynamic segment.
	LatestTx int
	// Cluster is the validated topology; schedulers consult it before
	// placing a frame on a channel the node may not be attached to.
	Cluster topology.Cluster
	// Trace is the run's event sink; schedulers may record policy events
	// (replans, failovers, shedding).  The engine always installs a
	// non-nil sink (NullSink when tracing is off), but hand-built Envs
	// may leave it nil — record through Env.Record, which tolerates
	// that.
	Trace trace.Sink
	// Gauges exposes the metrics collector's adaptive-controller gauges
	// for schedulers to update.  Nil-safe via the gauge methods.
	Gauges *metrics.AdaptiveGauges
	// Sync exposes the timing layer's clock-synchronization health so the
	// adaptive scheduler can treat sync loss like a blackout.  Nil when
	// the run models a perfect shared macrotick; all methods are
	// nil-safe.
	Sync *adapt.SyncMonitor

	// Dispatch tables, built once by Compile (ecuByID and ecuOrder by
	// NewState) so the per-slot walk indexes slices.  All are nil on
	// hand-built Envs, which therefore own no messages or ECUs.  msgByID
	// guards the per-message caches: a fast path is taken only when the
	// *signal.Message pointer matches the one the table was compiled
	// from, so foreign Message values never read stale timing and fall
	// back to computing it.
	msgByID       []*signal.Message
	staticBySlot  []*signal.Message
	dynamicByID   []*signal.Message
	ecuByID       []*node.ECU
	ecuOrder      []*node.ECU
	durByID       []timebase.Macrotick
	minislotsByID []int
	wireBitsByID  []int
	attachedA     []bool
	attachedB     []bool
}

// Record forwards an event to the trace sink, tolerating hand-built
// environments that never installed one.
func (e *Env) Record(ev trace.Event) {
	if e.Trace != nil {
		e.Trace.Record(ev)
	}
}

// compile precomputes the slot→message, per-message timing and channel
// attachment tables the cycle loop indexes.  Called once by Compile on a
// validated workload and cluster; the node→ECU tables are per state
// (NewState).
func (e *Env) compile() {
	maxID, maxNode := e.Cfg.StaticSlots, 0
	for i := range e.Set.Messages {
		if id := e.Set.Messages[i].ID; id > maxID {
			maxID = id
		}
	}
	for _, n := range e.Cluster.Nodes {
		if n.ID > maxNode {
			maxNode = n.ID
		}
	}
	e.msgByID = make([]*signal.Message, maxID+1)
	e.staticBySlot = make([]*signal.Message, e.Cfg.StaticSlots+1)
	e.dynamicByID = make([]*signal.Message, maxID+1)
	e.durByID = make([]timebase.Macrotick, maxID+1)
	e.minislotsByID = make([]int, maxID+1)
	e.wireBitsByID = make([]int, maxID+1)
	for i := range e.Set.Messages {
		m := &e.Set.Messages[i]
		switch m.Kind {
		case signal.Periodic:
			if m.ID >= 0 && m.ID < len(e.staticBySlot) {
				e.staticBySlot[m.ID] = m
			}
		case signal.Aperiodic:
			if m.ID >= 0 && m.ID < len(e.dynamicByID) {
				e.dynamicByID[m.ID] = m
			}
		}
		e.compileMsg(m)
	}
	e.attachedA = make([]bool, maxNode+1)
	e.attachedB = make([]bool, maxNode+1)
	for _, n := range e.Cluster.Nodes {
		e.attachedA[n.ID] = n.Attached(frame.ChannelA)
		e.attachedB[n.ID] = n.Attached(frame.ChannelB)
	}
}

func (e *Env) compileMsg(m *signal.Message) {
	if m == nil || m.ID < 0 || m.ID >= len(e.msgByID) {
		return
	}
	e.msgByID[m.ID] = m
	d := frame.Duration(m.Bytes(), e.BitRate, e.Cfg)
	e.durByID[m.ID] = d
	e.minislotsByID[m.ID] = e.Cfg.MinislotsForFrame(d)
	e.wireBitsByID[m.ID] = frame.WireBits(m.Bytes())
}

// compiledFor reports whether the per-message caches were built from
// exactly this message value.
func (e *Env) compiledFor(m *signal.Message) bool {
	return m != nil && m.ID >= 0 && m.ID < len(e.msgByID) && e.msgByID[m.ID] == m
}

// StaticMsg returns the message owning static slot `slot`, or nil.
func (e *Env) StaticMsg(slot int) *signal.Message {
	if slot >= 0 && slot < len(e.staticBySlot) {
		return e.staticBySlot[slot]
	}
	return nil
}

// DynamicMsg returns the dynamic message with frame ID `id`, or nil.
func (e *Env) DynamicMsg(id int) *signal.Message {
	if id >= 0 && id < len(e.dynamicByID) {
		return e.dynamicByID[id]
	}
	return nil
}

// ECU returns the ECU of the node, or nil.
func (e *Env) ECU(nodeID int) *node.ECU {
	if nodeID >= 0 && nodeID < len(e.ecuByID) {
		return e.ecuByID[nodeID]
	}
	return nil
}

// WireBits returns the wire image size of the message's frame in bits.
func (e *Env) WireBits(m *signal.Message) int {
	if e.compiledFor(m) {
		return e.wireBitsByID[m.ID]
	}
	return frame.WireBits(m.Bytes())
}

// OrderedECUs returns the ECUs in ascending node-ID order.  Every
// per-ECU sweep in the engine and the schedulers goes through it, so
// behavior never depends on the order nodes are declared in (the
// determinism contract, DESIGN.md §8).
func (e *Env) OrderedECUs() []*node.ECU {
	return e.ecuOrder
}

// Attached reports whether the node is attached to the channel.
func (e *Env) Attached(nodeID int, ch frame.Channel) bool {
	if nodeID < 0 || nodeID >= len(e.attachedA) {
		return false
	}
	switch ch {
	case frame.ChannelA:
		return e.attachedA[nodeID]
	case frame.ChannelB:
		return e.attachedB[nodeID]
	}
	return false
}

// FrameDuration returns the wire time of a message's frame in macroticks.
func (e *Env) FrameDuration(m *signal.Message) timebase.Macrotick {
	if e.compiledFor(m) {
		return e.durByID[m.ID]
	}
	return frame.Duration(m.Bytes(), e.BitRate, e.Cfg)
}

// FitsStaticSlot reports whether the message's frame fits one static slot.
func (e *Env) FitsStaticSlot(m *signal.Message) bool {
	return e.FrameDuration(m) <= e.Cfg.StaticSlotLen
}

// MinislotsFor returns the number of minislots a dynamic transmission of the
// message consumes.
func (e *Env) MinislotsFor(m *signal.Message) int {
	if e.compiledFor(m) {
		return e.minislotsByID[m.ID]
	}
	return e.Cfg.MinislotsForFrame(e.FrameDuration(m))
}

// OwnerOfStaticSlot returns the ECU owning static slot `slot` (= frame ID),
// or nil when the slot is unassigned.
func (e *Env) OwnerOfStaticSlot(slot int) *node.ECU {
	m := e.StaticMsg(slot)
	if m == nil {
		return nil
	}
	return e.ECU(m.Node)
}

// Transmission is one frame a scheduler puts on a channel.
type Transmission struct {
	// Instance is the message instance carried.
	Instance *node.Instance
	// Channel is the channel transmitted on.
	Channel frame.Channel
	// Duration is the wire time in macroticks.
	Duration timebase.Macrotick
	// Retx marks a retransmission attempt (not the first transmission of
	// the instance).
	Retx bool
	// Stolen marks a transmission placed into stolen static-segment slack
	// (CoEfficient's cooperative scheduling).
	Stolen bool
	// Redundant marks a copy whose instance may already be delivered on
	// the other channel (FSPEC dual-channel redundancy).
	Redundant bool
	// Detail is free-form context recorded in the trace.
	Detail string
	// Tag is opaque scheduler state passed back verbatim in Result (e.g.
	// the retransmission job a copy belongs to).
	Tag any
}

func (tx *Transmission) validate(env *Env) error {
	if tx.Instance == nil || tx.Instance.Msg == nil {
		return fmt.Errorf("%w: nil instance", ErrBadTransmission)
	}
	if tx.Duration <= 0 {
		return fmt.Errorf("%w: duration %d", ErrBadTransmission, tx.Duration)
	}
	if env.ECU(tx.Instance.Msg.Node) == nil {
		return fmt.Errorf("%w: unknown node %d", ErrBadTransmission, tx.Instance.Msg.Node)
	}
	return nil
}

// Scheduler is the policy half of the simulator.  Exactly one method is
// invoked at a time; implementations need no locking.
//
// Call order within a cycle: CycleStart; then for each static slot, channel
// A's StaticSlot (and its Result) before channel B's; then the full dynamic
// FTDMA walk of channel A followed by channel B's.  Schedulers may rely on
// this ordering, e.g. to duplicate a static frame on channel B.
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Init receives the environment before the first cycle.
	Init(env *Env) error
	// CycleStart is called at the beginning of every communication cycle.
	CycleStart(cycle int64, now timebase.Macrotick)
	// StaticSlot picks the transmission for static slot `slot` of `cycle`
	// on channel ch (slot start time `now`), or nil to leave it idle.
	// The returned frame must fit the static slot.
	StaticSlot(ch frame.Channel, cycle int64, slot int, now timebase.Macrotick) *Transmission
	// DynamicSlot is consulted during the FTDMA walk: the current dynamic
	// slot counter is `slotCounter`, the current minislot index is
	// `minislot` (1-based) and `remaining` minislots are left in the
	// segment.  Return the transmission for this dynamic slot or nil to
	// let the slot pass in one minislot.
	DynamicSlot(ch frame.Channel, cycle int64, slotCounter, minislot, remaining int, now timebase.Macrotick) *Transmission
	// Result reports the outcome of a transmission: ok is false when a
	// transient fault corrupted the frame.  now is the wire end time.
	Result(tx *Transmission, ok bool, now timebase.Macrotick)
	// InstanceDropped tells the scheduler an instance was abandoned
	// because its deadline passed (streaming mode only).
	InstanceDropped(in *node.Instance, now timebase.Macrotick)
}
