// Package trace records bus events during a simulation — the software
// equivalent of the bus analysis tool attached to the paper's testbed.
// Events flow by value into a Sink; the FullRecorder sink collects
// per-frame events (release, transmission start/end, fault,
// retransmission, drop) that the metrics and experiment layers consume
// and can export them as JSON for offline inspection.  The JSONWriter
// sink streams that same JSON to an io.Writer as events arrive, without
// retaining them — the scenario corpus hashes every cell's trace this
// way — while the CountingSink and NullSink trade the event log away
// for a zero-allocation hot path.
package trace

import (
	"io"
	"sync"

	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/timebase"
)

// EventKind classifies a bus event.
type EventKind int

// Bus event kinds.
const (
	// EventRelease marks a message instance becoming ready at its source.
	EventRelease EventKind = iota + 1
	// EventTxStart marks the start of a frame transmission.
	EventTxStart
	// EventTxEnd marks a successful frame transmission.
	EventTxEnd
	// EventFault marks a transmission corrupted by a transient fault.
	EventFault
	// EventRetransmit marks a retransmission attempt being scheduled.
	EventRetransmit
	// EventDrop marks an instance abandoned (deadline passed or
	// retransmission budget exhausted).
	EventDrop
	// EventDeadlineMiss marks an instance delivered after its deadline.
	EventDeadlineMiss
	// EventReplan marks the adaptive controller recomputing the
	// retransmission plan at a new observed BER.
	EventReplan
	// EventFailover marks dual-channel failover being activated or
	// deactivated for a suspect channel.
	EventFailover
	// EventShed marks a message being shed from (or restored to) service
	// by criticality-ordered load shedding.
	EventShed
	// EventNodeDown marks a node entering a scripted failure interval.
	EventNodeDown
	// EventNodeUp marks a failed node rejoining the cluster.
	EventNodeUp
	// EventClockCorrection marks a node applying an FTM offset correction
	// in network idle time (Seq carries the correction in microticks).
	EventClockCorrection
	// EventSyncLoss marks a node's clock deviation exceeding the precision
	// bound, or its sync-frame view going dark.
	EventSyncLoss
	// EventGuardianBlock marks a bus guardian vetoing a transmission
	// outside the node's scheduled window.
	EventGuardianBlock
	// EventPOCState marks a node's protocol operation control state change
	// (Detail carries the new state, e.g. "normal-passive").
	EventPOCState
)

// kindCount sizes the per-kind counter arrays used by FullRecorder and
// CountingSink: kinds are 1-based, so the array spans [0, EventPOCState].
const kindCount = int(EventPOCState) + 1

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventRelease:
		return "release"
	case EventTxStart:
		return "tx-start"
	case EventTxEnd:
		return "tx-end"
	case EventFault:
		return "fault"
	case EventRetransmit:
		return "retransmit"
	case EventDrop:
		return "drop"
	case EventDeadlineMiss:
		return "deadline-miss"
	case EventReplan:
		return "replan"
	case EventFailover:
		return "failover"
	case EventShed:
		return "shed"
	case EventNodeDown:
		return "node-down"
	case EventNodeUp:
		return "node-up"
	case EventClockCorrection:
		return "clock-correction"
	case EventSyncLoss:
		return "sync-loss"
	case EventGuardianBlock:
		return "guardian-block"
	case EventPOCState:
		return "poc-state"
	default:
		return "unknown"
	}
}

// Event is one recorded bus event.
type Event struct {
	// Time is the macrotick timestamp.
	Time timebase.Macrotick `json:"time"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// FrameID is the frame the event concerns.
	FrameID int `json:"frameId"`
	// Seq is the message instance sequence number.
	Seq int64 `json:"seq"`
	// Node is the transmitting node.
	Node int `json:"node"`
	// Channel is the channel involved (0 when not applicable).
	Channel frame.Channel `json:"channel,omitempty"`
	// Detail carries free-form context ("stolen-slot", "dynamic", ...).
	Detail string `json:"detail,omitempty"`
}

// Sink receives simulation events by value.  Implementations are NOT
// required to be safe for concurrent use: the engine is single-threaded
// per run, and the parallel runner gives each replication its own sink.
// Wrap a sink in NewSync when several goroutines genuinely share one.
type Sink interface {
	Record(Event)
}

// FullRecorder retains every event in record order — the sink the JSON
// exporter, determinism suite, and event-level tests use.  The zero
// value discards everything; use New to record.  Unlike the pre-sink
// Recorder, FullRecorder takes no lock: single-threaded engine runs pay
// nothing, and concurrent writers must wrap it in NewSync.
type FullRecorder struct {
	recording bool
	events    []Event
	counts    [kindCount]int64
	// extra counts kinds outside [0, kindCount) — only foreign or
	// future kinds land here, so the map is allocated lazily.
	extra map[EventKind]int64
}

// Recorder is the historical name for the event-retaining sink.
type Recorder = FullRecorder

// New returns an enabled recorder.
func New() *FullRecorder {
	return &FullRecorder{recording: true}
}

// Record appends an event.  On a nil or zero-value recorder it is a
// no-op, so call sites need no nil checks.
func (r *FullRecorder) Record(e Event) {
	if r == nil || !r.recording {
		return
	}
	if k := int(e.Kind); k >= 0 && k < kindCount {
		r.counts[k]++
	} else {
		if r.extra == nil {
			r.extra = make(map[EventKind]int64)
		}
		r.extra[e.Kind]++
	}
	r.events = append(r.events, e)
}

// Count returns how many events of the kind were recorded.
func (r *FullRecorder) Count(k EventKind) int64 {
	if r == nil {
		return 0
	}
	if i := int(k); i >= 0 && i < kindCount {
		return r.counts[i]
	}
	return r.extra[k]
}

// Events returns a copy of all recorded events in record order.
func (r *FullRecorder) Events() []Event {
	if r == nil {
		return nil
	}
	return append([]Event(nil), r.events...)
}

// Filter returns the recorded events matching the predicate.
func (r *FullRecorder) Filter(keep func(Event) bool) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for _, e := range r.events {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// Len returns the number of recorded events.
func (r *FullRecorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// WriteJSON writes the events as an indented JSON array by replaying
// them through a JSONWriter; a nil or empty recorder writes `null`.
func (r *FullRecorder) WriteJSON(w io.Writer) error {
	jw := NewJSONWriter(w)
	if r != nil {
		for _, e := range r.events {
			jw.Record(e)
		}
	}
	return jw.Close()
}

// CountingSink tallies events per kind without retaining them — the
// zero-allocation sink for throughput runs, where the experiment layer
// only consumes aggregate counts.  Record never allocates; kinds
// outside the known range contribute to Total only.  The zero value is
// ready to use.
type CountingSink struct {
	counts [kindCount]int64
	total  int64
}

// Record tallies the event.  It never allocates and never blocks.
//
//perf:hotpath
func (s *CountingSink) Record(e Event) {
	if s == nil {
		return
	}
	s.total++
	if k := int(e.Kind); k >= 0 && k < kindCount {
		s.counts[k]++
	}
}

// Count returns how many events of the kind were recorded.
func (s *CountingSink) Count(k EventKind) int64 {
	if s == nil {
		return 0
	}
	if i := int(k); i >= 0 && i < kindCount {
		return s.counts[i]
	}
	return 0
}

// Total returns how many events were recorded across all kinds.
func (s *CountingSink) Total() int64 {
	if s == nil {
		return 0
	}
	return s.total
}

// NullSink discards every event — the pure-throughput benchmarking sink.
type NullSink struct{}

// Record discards the event.
//
//perf:hotpath
func (NullSink) Record(Event) {}

// SyncSink serializes Record calls onto an underlying sink with a
// mutex.  It is the only sink that owns a lock: single-threaded runs
// use the bare sinks, and only genuinely shared sinks pay for
// synchronization.
type SyncSink struct {
	mu  sync.Mutex
	dst Sink
}

// NewSync wraps dst so that concurrent Record calls are safe.
func NewSync(dst Sink) *SyncSink {
	return &SyncSink{dst: dst}
}

// Record forwards the event to the wrapped sink under the lock.
func (s *SyncSink) Record(e Event) {
	if s == nil || s.dst == nil {
		return
	}
	s.mu.Lock()
	s.dst.Record(e)
	s.mu.Unlock()
}

// Summary aggregates a recorder's events for quick inspection — the bus
// analyzer's dashboard view.
type Summary struct {
	// Events counts all recorded events.
	Events int
	// ByKind counts events per kind.
	ByKind map[EventKind]int64
	// Frames counts transmission starts per frame ID.
	Frames map[int]int64
	// FaultsByFrame counts corrupted transmissions per frame ID.
	FaultsByFrame map[int]int64
}

// Summarize builds a Summary from the recorded events.
func (r *FullRecorder) Summarize() Summary {
	s := Summary{
		ByKind:        make(map[EventKind]int64),
		Frames:        make(map[int]int64),
		FaultsByFrame: make(map[int]int64),
	}
	for _, e := range r.Events() {
		s.Events++
		s.ByKind[e.Kind]++
		switch e.Kind {
		case EventTxStart:
			s.Frames[e.FrameID]++
		case EventFault:
			s.FaultsByFrame[e.FrameID]++
		}
	}
	return s
}
