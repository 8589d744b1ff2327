// Package node models one FlexRay ECU's controller–host interface (CHI):
// the buffers between the host that produces message instances and the
// communication controller (CC) — static send buffers keyed by frame ID
// and priority queues for dynamic messages (paper Section II-B).  The
// node's bus guardian is modelled by the simulator's timing layer
// (internal/sim), which reads slot ownership from the static schedule.
package node

import (
	"errors"
	"fmt"
	"sort"

	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/timebase"
)

// Errors returned by ECU operations.
var (
	// ErrForeignMessage is returned when enqueueing an instance whose
	// message belongs to a different node.
	ErrForeignMessage = errors.New("node: message belongs to another node")
	// ErrUnknownFrame is returned for operations on frame IDs the node
	// does not own.
	ErrUnknownFrame = errors.New("node: unknown frame ID")
)

// NoDeadline marks batch-mode instances that are never dropped for
// lateness.
const NoDeadline = timebase.Macrotick(1<<62 - 1)

// Instance is one job of a message: a concrete frame to transmit.
type Instance struct {
	// Msg is the message this instance belongs to.
	Msg *signal.Message
	// Seq numbers the instance within its message (1-based).
	Seq int64
	// Release is the absolute time the instance became ready.
	Release timebase.Macrotick
	// Deadline is the absolute deadline (NoDeadline in batch mode).
	Deadline timebase.Macrotick
	// Attempts counts transmissions tried so far (including faults).
	Attempts int
	// Done marks successful delivery.
	Done bool
	// Completion is the delivery time when Done.
	Completion timebase.Macrotick
}

// Expired reports whether the instance's deadline has passed at time t
// without delivery.
func (in *Instance) Expired(t timebase.Macrotick) bool {
	return !in.Done && in.Deadline != NoDeadline && t > in.Deadline
}

// ECU is one node's CHI buffers.
type ECU struct {
	// ID is the cluster node ID.
	ID int
	// staticBufs holds the FIFO instance queue of each owned static
	// frame ID, indexed densely by frame ID (owned marks valid entries)
	// so the per-slot peek/pop path indexes a slice instead of hashing a
	// map key.
	staticBufs []instQueue
	owned      []bool
	// staticIDs lists owned static frame IDs in ascending order;
	// staticCount tracks the total instances buffered across them so the
	// per-cycle expiry sweep can skip ECUs with nothing queued.
	staticIDs   []int
	staticCount int
	// dynStreams holds one FIFO buffer per aperiodic message, sorted by
	// (priority, frame ID); dynByID indexes the streams densely by frame
	// ID and dynCount tracks the total buffered instances.  Splitting the
	// single priority heap into per-message release-ordered buffers makes
	// every peek O(streams) instead of O(instances) while preserving the
	// exact (priority, release, ID, seq) service order.
	dynStreams []*dynStream
	dynByID    []*dynStream
	dynCount   int
}

// NewECU returns an ECU owning the static frame IDs assigned to it.
func NewECU(id int, staticFrameIDs []int) *ECU {
	e := &ECU{ID: id}
	maxID := -1
	for _, fid := range staticFrameIDs {
		if fid < 0 {
			continue // frame IDs are 1-based; never owned
		}
		if fid > maxID {
			maxID = fid
		}
		e.staticIDs = append(e.staticIDs, fid)
	}
	sort.Ints(e.staticIDs)
	e.staticBufs = make([]instQueue, maxID+1)
	e.owned = make([]bool, maxID+1)
	for _, fid := range e.staticIDs {
		e.owned[fid] = true
	}
	return e
}

// staticBuf returns the buffer for the frame ID, or nil when the ECU does
// not own that ID.
func (e *ECU) staticBuf(fid int) *instQueue {
	if fid < 0 || fid >= len(e.owned) || !e.owned[fid] {
		return nil
	}
	return &e.staticBufs[fid]
}

// Reset empties every CHI buffer, keeping all backing memory: buffers
// are truncated (instance pointers niled for the GC) and the per-message
// dynamic streams survive empty.  Retained empty streams are invisible
// to the peek paths, so a reset ECU behaves exactly like a fresh
// NewECU with the same ownership — this is the per-replica rewind of
// the batched Monte-Carlo engine (DESIGN.md §15).
//
//perf:hotpath
func (e *ECU) Reset() {
	for _, fid := range e.staticIDs {
		e.staticBufs[fid].reset()
	}
	for _, st := range e.dynStreams {
		st.buf.reset()
	}
	e.dynCount = 0
	e.staticCount = 0
}

// EnqueueStatic appends an instance to the static buffer of its frame ID.
func (e *ECU) EnqueueStatic(in *Instance) error {
	if in.Msg.Node != e.ID {
		return fmt.Errorf("%w: message %q is node %d, ECU is %d",
			ErrForeignMessage, in.Msg.Name, in.Msg.Node, e.ID)
	}
	q := e.staticBuf(in.Msg.ID)
	if q == nil {
		return fmt.Errorf("%w: %d on node %d", ErrUnknownFrame, in.Msg.ID, e.ID)
	}
	q.push(in)
	e.staticCount++
	return nil
}

// PeekStatic returns the oldest pending instance for the frame ID that was
// released by time t, without removing it.  Expired instances at the head
// are returned too — the caller decides whether to drop them.
//
//perf:hotpath
func (e *ECU) PeekStatic(frameID int, t timebase.Macrotick) *Instance {
	q := e.staticBuf(frameID)
	if q == nil {
		return nil
	}
	for _, in := range q.items() {
		if in.Done {
			continue
		}
		if in.Release > t {
			return nil
		}
		return in
	}
	return nil
}

// PeekStaticBlind returns the oldest instance for the frame ID released by
// time t whose attempt count is below maxAttempts, including instances
// already delivered — the view of a protocol without acknowledgements that
// blindly transmits a fixed number of redundant copies.
//
//perf:hotpath
func (e *ECU) PeekStaticBlind(frameID int, t timebase.Macrotick, maxAttempts int) *Instance {
	q := e.staticBuf(frameID)
	if q == nil {
		return nil
	}
	for _, in := range q.items() {
		if in.Release > t {
			return nil
		}
		if in.Attempts < maxAttempts {
			return in
		}
	}
	return nil
}

// PeekDynamicForBlind is PeekStaticBlind's counterpart for the dynamic
// priority queue.
//
//perf:hotpath
func (e *ECU) PeekDynamicForBlind(frameID int, t timebase.Macrotick, maxAttempts int) *Instance {
	st := e.dynStreamFor(frameID)
	if st == nil {
		return nil
	}
	for _, in := range st.buf.items() {
		if in.Release > t {
			return nil
		}
		if in.Attempts < maxAttempts {
			return in
		}
	}
	return nil
}

// RemoveStatic deletes the exact instance from its static buffer and
// reports whether it was present.
func (e *ECU) RemoveStatic(target *Instance) bool {
	q := e.staticBuf(target.Msg.ID)
	if q == nil {
		return false
	}
	if q.removeInstance(target) {
		e.staticCount--
		return true
	}
	return false
}

// DropExpiredStatic removes expired instances from all static buffers and
// returns them, walking the owned frame IDs in ascending order so
// same-instant drops always land in the trace in the same sequence.
func (e *ECU) DropExpiredStatic(t timebase.Macrotick) []*Instance {
	if e.staticCount == 0 {
		return nil
	}
	var dropped []*Instance
	for _, fid := range e.staticIDs {
		dropped = e.staticBufs[fid].dropExpired(t, dropped)
	}
	e.staticCount -= len(dropped)
	return dropped
}

// EnqueueDynamic appends a dynamic instance to its message's buffer.  The
// caller releases each message's instances in (Release, Seq) order, which
// keeps every buffer release-sorted.
func (e *ECU) EnqueueDynamic(in *Instance) error {
	if in.Msg.Node != e.ID {
		return fmt.Errorf("%w: message %q is node %d, ECU is %d",
			ErrForeignMessage, in.Msg.Name, in.Msg.Node, e.ID)
	}
	e.dynStream(in.Msg.ID, in.Msg.Priority).buf.push(in)
	e.dynCount++
	return nil
}

// dynStream returns the stream for the frame ID, creating and indexing it
// on first use.
func (e *ECU) dynStream(id, prio int) *dynStream {
	if st := e.dynStreamFor(id); st != nil {
		return st
	}
	st := &dynStream{id: id, prio: prio}
	if id >= len(e.dynByID) {
		grown := make([]*dynStream, id+1)
		copy(grown, e.dynByID)
		e.dynByID = grown
	}
	e.dynByID[id] = st
	// Insert in (priority, ID) order so PeekDynamicAny walks streams in
	// service order.
	lo, hi := 0, len(e.dynStreams)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		o := e.dynStreams[mid]
		if o.prio < prio || (o.prio == prio && o.id < id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.dynStreams = append(e.dynStreams, nil)
	copy(e.dynStreams[lo+1:], e.dynStreams[lo:])
	e.dynStreams[lo] = st
	return st
}

// dynStreamFor returns the stream for the frame ID, or nil.
func (e *ECU) dynStreamFor(id int) *dynStream {
	if id >= 0 && id < len(e.dynByID) {
		return e.dynByID[id]
	}
	return nil
}

// PeekDynamicFor returns the highest-priority pending dynamic instance with
// the given frame ID released by t, or nil.  FlexRay transmits the head of
// the priority queue for the slot's frame ID.
//
//perf:hotpath
func (e *ECU) PeekDynamicFor(frameID int, t timebase.Macrotick) *Instance {
	st := e.dynStreamFor(frameID)
	if st == nil {
		return nil
	}
	return st.head(t)
}

// HasDynamicBuffered reports whether any dynamic instance is buffered
// (delivered-but-unremoved instances count).  It is the O(1) guard the
// per-slot steal scan uses to skip ECUs with nothing to offer — at low
// aperiodic load most slots see every queue empty, and walking the
// stream lists anyway dominated the static segment.
//
//perf:hotpath
func (e *ECU) HasDynamicBuffered() bool {
	return e.dynCount > 0
}

// PeekDynamicAny returns the highest-priority pending dynamic instance
// released by t regardless of frame ID (used by slack stealing, which is
// not bound to the FTDMA slot counter), or nil.
//
//perf:hotpath
func (e *ECU) PeekDynamicAny(t timebase.Macrotick) *Instance {
	if e.dynCount == 0 {
		return nil
	}
	var best *Instance
	for _, st := range e.dynStreams {
		// Streams walk in ascending (priority, ID); once the stream
		// priority passes the best head's, no later stream can win.
		if best != nil && st.prio > best.Msg.Priority {
			break
		}
		head := st.head(t)
		if head == nil {
			continue
		}
		if best == nil || dynBefore(head, best) {
			best = head
		}
	}
	return best
}

// dynBefore is the dynamic service order (priority, release, ID, seq) —
// the same total order the former priority heap used.
func dynBefore(a, b *Instance) bool {
	if a.Msg.Priority != b.Msg.Priority {
		return a.Msg.Priority < b.Msg.Priority
	}
	if a.Release != b.Release {
		return a.Release < b.Release
	}
	if a.Msg.ID != b.Msg.ID {
		return a.Msg.ID < b.Msg.ID
	}
	return a.Seq < b.Seq
}

// RemoveDynamic deletes the instance from its message's buffer.
func (e *ECU) RemoveDynamic(target *Instance) bool {
	st := e.dynStreamFor(target.Msg.ID)
	if st == nil {
		return false
	}
	if st.buf.removeInstance(target) {
		e.dynCount--
		return true
	}
	return false
}

// DropExpiredDynamic removes expired instances from the dynamic buffers
// and returns them in (priority, frame ID, release, seq) order, which is
// deterministic across runs.
func (e *ECU) DropExpiredDynamic(t timebase.Macrotick) []*Instance {
	if e.dynCount == 0 {
		return nil
	}
	var dropped []*Instance
	for _, st := range e.dynStreams {
		dropped = st.buf.dropExpired(t, dropped)
	}
	e.dynCount -= len(dropped)
	return dropped
}

// StaticFrameIDs returns the owned static frame IDs.
func (e *ECU) StaticFrameIDs() []int {
	return append([]int(nil), e.staticIDs...)
}

// dynStream is the FIFO buffer of one aperiodic message: instances sorted
// by (Release, Seq).
type dynStream struct {
	id, prio int
	buf      instQueue
}

// head returns the first undelivered instance released by t, or nil.  The
// buffer is release-sorted, so the first undelivered entry is the minimum
// of the (priority, release, ID, seq) service order within this stream.
//
//perf:hotpath
func (st *dynStream) head(t timebase.Macrotick) *Instance {
	for _, in := range st.buf.items() {
		if in.Done {
			continue
		}
		if in.Release > t {
			return nil
		}
		return in
	}
	return nil
}

// instQueue is one CHI buffer, held as buf[head:] so that taking the head
// is O(1).  Removing an entry shifts whichever side of it is shorter: in
// batch mode a buffer holds hundreds of instances, and every shifted
// pointer costs a write barrier while the collector marks.  A push at the
// tail compacts only when the backing array is full, and vacated slots
// are nil so the collector can free delivered instances.
type instQueue struct {
	buf  []*Instance
	head int
}

// items returns the buffered instances in order; the slice aliases the
// queue and is valid until its next change.
func (q *instQueue) items() []*Instance { return q.buf[q.head:] }

// push appends in at the tail.
func (q *instQueue) push(in *Instance) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, in)
}

// remove deletes position i of items().
func (q *instQueue) remove(i int) {
	items := q.items()
	if n := len(items); i < n-1-i {
		copy(items[1:i+1], items[:i])
		items[0] = nil
		q.head++
	} else {
		copy(items[i:], items[i+1:])
		items[n-1] = nil
		q.buf = q.buf[:len(q.buf)-1]
	}
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// removeInstance deletes target and reports whether it was buffered.
func (q *instQueue) removeInstance(target *Instance) bool {
	for i, in := range q.items() {
		if in == target {
			q.remove(i)
			return true
		}
	}
	return false
}

// dropExpired appends the instances expired at t to dropped, in buffer
// order, and removes them.  It scans to the first expired instance before
// rewriting anything: most sweeps drop nothing, and the untouched prefix
// needs no pointer writes.
func (q *instQueue) dropExpired(t timebase.Macrotick, dropped []*Instance) []*Instance {
	items := q.items()
	i := 0
	for i < len(items) && !items[i].Expired(t) {
		i++
	}
	if i == len(items) {
		return dropped
	}
	keep := items[:i]
	for _, in := range items[i:] {
		if in.Expired(t) {
			dropped = append(dropped, in)
		} else {
			keep = append(keep, in)
		}
	}
	clear(items[len(keep):])
	q.buf = q.buf[:q.head+len(keep)]
	if len(keep) == 0 {
		q.buf, q.head = q.buf[:0], 0
	}
	return dropped
}

// reset empties the queue, keeping its backing array.
func (q *instQueue) reset() {
	clear(q.buf)
	q.buf, q.head = q.buf[:0], 0
}
