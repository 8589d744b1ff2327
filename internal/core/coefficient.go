// Package core implements CoEfficient, the paper's contribution: a FlexRay
// scheduler that cooperatively schedules the static and dynamic segments in
// a dual-channel manner and guarantees a quantitative reliability goal with
// differentiated retransmission placed into selectively stolen slack.
//
// The three task classes of Section III-A map onto the simulator as:
//
//   - static segments — hard periodic tasks, transmitted in their TDMA
//     slots on channel A;
//   - retransmitted segments — hard aperiodic tasks, queued EDF and served
//     in stolen slack: idle static slots of either channel (selective: only
//     slots long enough for the frame) and matching dynamic slots;
//   - dynamic segments — soft aperiodic tasks, served by the FTDMA walk and
//     additionally in stolen static slack (the cooperative half).
//
// The retransmission budget k_z per message comes from the differentiated
// planner of internal/reliability (Theorem 1).  Stealing needs no slack
// admission test to protect the periodic deadlines: FlexRay gives each
// static slot to exactly one node, a channel-A static slot is stolen only
// when its owner has no pending instance, and channel B's static segment
// carries no primary traffic, so a steal never displaces a periodic
// transmission.
package core

import (
	"fmt"
	"slices"
	"time"

	"github.com/flexray-go/coefficient/internal/adapt"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/node"
	"github.com/flexray-go/coefficient/internal/reliability"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"
)

// Options configures the CoEfficient scheduler.
type Options struct {
	// BER is the assumed bit error rate of the channel in [0, 1) (drives
	// the retransmission plan).
	BER float64
	// Goal is the reliability goal ρ in (0, 1); 0 defaults to the SIL3
	// goal over Unit.
	Goal float64
	// Unit is the time unit u of Theorem 1; 0 defaults to one second.
	Unit time.Duration
	// MaxRetx caps per-message retransmissions (0: library default).
	MaxRetx int

	// Uniform switches the ablation from differentiated to uniform
	// retransmission planning.
	Uniform bool
	// SingleChannel disables the use of channel B (ablation).
	SingleChannel bool
	// NoSelectiveSlack disables skipping over a non-fitting EDF head
	// when placing retransmissions (ablation: head-of-line blocking).
	NoSelectiveSlack bool
	// Adaptive enables the online reliability controller: a windowed
	// frame-error-rate estimator per channel fed from transmission
	// outcomes, runtime replanning of the retransmission vector k_z when
	// the observed error rate diverges from the plan BER, dual-channel
	// failover for channels that look blacked out, and
	// criticality-ordered load shedding when the required retransmissions
	// no longer fit the stolen-slack budget.
	Adaptive bool
}

// retxJob is one pending retransmission: a hard aperiodic task.
type retxJob struct {
	in       *node.Instance
	deadline timebase.Macrotick
	duration timebase.Macrotick
	seq      int64
}

// Stats reports scheduler-internal counters for experiments and tests.
type Stats struct {
	// PlannedRetx is Σ k_z over the retransmission plan.
	PlannedRetx int
	// JobsCreated counts retransmission jobs enqueued.
	JobsCreated int64
	// StolenStatic counts transmissions placed into idle static slots.
	StolenStatic int64
	// StolenSoft counts dynamic (soft) messages served in static slack.
	StolenSoft int64
}

// Scheduler is the CoEfficient policy.
type Scheduler struct {
	opts Options
	env  *sim.Env

	// frames holds the per-frame-ID state, indexed densely by frame ID:
	// the plan's k_z (planFor reads it), the copy-spawn watermark and the
	// queued-job count.
	frames []frameState
	// plan0 snapshots the freshly built k_z per frame ID (and
	// plannedRetx0 its Σ k_z) at Init so ResetReplica can restore it
	// after adaptive replans without re-running the reliability planner.
	plan0        []int
	plannedRetx0 int

	// retx is the EDF-ordered retransmission queue, kept sorted by
	// (deadline, seq) via binary insertion.
	retx     jobQueue
	nextSeq  int64
	jobArena retxArena

	// Adaptive-mode state (nil / zero when Options.Adaptive is off).
	ctl *adapt.Controller
	// planMeta caches per-message planning inputs for runtime replans.
	planMeta []planEntry
	// shed marks frame IDs currently removed from service by load
	// shedding, indexed densely by frame ID (empty when adaptive mode
	// is off, so isShed is a bounds check).
	shed []bool
	// probeCycles counts consecutive cycles each channel has been
	// suspect, driving the periodic probe (index 0 is channel A).
	probeCycles [2]int64
	// failoverActive is set while channel B substitutes for a suspect
	// channel A.
	failoverActive bool

	// tx is the scratch transmission handed to the engine; the
	// sim.Scheduler contract guarantees each transmission is fully
	// consumed before the next scheduler call, so one value is reused
	// instead of allocating per slot.
	tx sim.Transmission

	stats Stats
}

// frameState is the scheduler's state for one frame ID.
type frameState struct {
	// spawnedSeq is the spawn watermark: the highest instance Seq whose
	// copies were enqueued.  Every peek hands out a frame's instances
	// FIFO in Seq, and a delivered or dropped instance is never handed
	// out again, so an instance's copies were spawned exactly when its
	// Seq ≤ spawnedSeq.
	spawnedSeq int64
	// k is the retransmission budget k_z of the frame's message.
	k int
	// jobs counts the frame's queued retransmission jobs.
	jobs int
}

// retxArenaBlock is the job allocation granularity of retxArena.
const retxArenaBlock = 64

// retxArena block-allocates retransmission jobs.  Blocks are append-only
// and never recycled within a run — a job keeps its identity until the run
// ends — so reuse cannot perturb the deterministic queue order.  Across
// replicas the blocks are retained and rewound: ResetReplica truncates
// them and the next replica's jobs overwrite the old ones in place.
type retxArena struct {
	blocks [][]retxJob
	cur    int
}

func (a *retxArena) new() *retxJob {
	if a.cur < len(a.blocks) && len(a.blocks[a.cur]) == cap(a.blocks[a.cur]) {
		a.cur++
	}
	if a.cur == len(a.blocks) {
		a.blocks = append(a.blocks, make([]retxJob, 0, retxArenaBlock))
	}
	b := a.blocks[a.cur][:len(a.blocks[a.cur])+1]
	a.blocks[a.cur] = b
	return &b[len(b)-1]
}

// rewind truncates every block back to length zero, keeping the backing
// memory.  Safe only once no job handed out before the rewind is still
// referenced — ResetReplica empties the queue first.
//
//perf:hotpath
func (a *retxArena) rewind() {
	for i := range a.blocks {
		a.blocks[i] = a.blocks[i][:0]
	}
	a.cur = 0
}

// softCand is one slack-stealing candidate of stealSoft.
type softCand struct {
	in  *node.Instance
	dur timebase.Macrotick
}

// emit fills the scratch transmission and returns it.
//
//perf:hotpath
func (s *Scheduler) emit(tx sim.Transmission) *sim.Transmission {
	s.tx = tx
	return &s.tx
}

// planFor returns the retransmission budget k_z for a frame ID.
func (s *Scheduler) planFor(id int) int {
	if f := s.frame(id); f != nil {
		return f.k
	}
	return 0
}

// frame returns the state of a frame ID, or nil outside the workload.
//
//perf:hotpath
func (s *Scheduler) frame(id int) *frameState {
	if id >= 0 && id < len(s.frames) {
		return &s.frames[id]
	}
	return nil
}

// isShed reports whether the frame ID is currently shed.
func (s *Scheduler) isShed(id int) bool {
	return id >= 0 && id < len(s.shed) && s.shed[id]
}

var _ sim.Scheduler = (*Scheduler)(nil)

// New returns a CoEfficient scheduler.  Out-of-range options are reported
// by Init.
func New(opts Options) *Scheduler {
	if opts.Unit == 0 {
		opts.Unit = time.Second
	}
	if opts.Goal == 0 {
		opts.Goal = reliability.SIL3.Goal(opts.Unit)
	}
	return &Scheduler{opts: opts}
}

// Name implements sim.Scheduler.
func (s *Scheduler) Name() string { return "CoEfficient" }

// Stats returns the scheduler-internal counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// Plan returns the retransmission budget k_z for a frame ID.
func (s *Scheduler) Plan(frameID int) int { return s.planFor(frameID) }

// Init implements sim.Scheduler: it checks the options and computes the
// differentiated retransmission plan.
func (s *Scheduler) Init(env *sim.Env) error {
	if err := s.opts.validate(); err != nil {
		return err
	}
	s.env = env
	if err := s.buildPlan(); err != nil {
		return fmt.Errorf("core: retransmission plan: %w", err)
	}
	s.plan0 = slices.Grow(s.plan0[:0], len(s.frames))
	for _, f := range s.frames {
		s.plan0 = append(s.plan0, f.k)
	}
	s.plannedRetx0 = s.stats.PlannedRetx
	s.initAdaptive()
	return nil
}

// validate rejects out-of-range options.  It runs after New has filled in
// the defaults, so a zero Goal or Unit never reaches it; the negated
// range tests also reject NaN.
func (o *Options) validate() error {
	switch {
	case !(o.BER >= 0 && o.BER < 1):
		return fmt.Errorf("core: BER %g outside [0, 1)", o.BER)
	case o.Unit < 0:
		return fmt.Errorf("core: negative time unit %v", o.Unit)
	case !(o.Goal > 0 && o.Goal < 1):
		return fmt.Errorf("core: reliability goal %g outside (0, 1)", o.Goal)
	case o.MaxRetx < 0:
		return fmt.Errorf("core: negative retransmission cap %d", o.MaxRetx)
	}
	return nil
}

// ResetReplica implements sim.ReplicaResettable: the scheduler returns
// to its just-Init state without re-running the reliability planner, a
// pure function of the workload and options.  The queue and the job
// arena are emptied in place; the per-frame state is restored from the
// Init snapshot of the plan (adaptive replans mutate it) with no copies
// spawned or queued; adaptive mode rebuilds its controller, which is
// cheap and not allocation-gated.
//
//perf:hotpath
func (s *Scheduler) ResetReplica() error {
	for id, k := range s.plan0 {
		s.frames[id] = frameState{k: k}
	}
	s.stats = Stats{PlannedRetx: s.plannedRetx0}
	s.retx.reset()
	s.nextSeq = 0
	s.jobArena.rewind()
	if s.opts.Adaptive {
		s.initAdaptive()
		s.probeCycles = [2]int64{}
		s.failoverActive = false
	}
	return nil
}

// buildPlan runs the reliability planner over every message.  It also
// caches the planning inputs (planMeta) that runtime replans reuse.
func (s *Scheduler) buildPlan() error {
	maxID := 0
	for i := range s.env.Set.Messages {
		if id := s.env.Set.Messages[i].ID; id > maxID {
			maxID = id
		}
	}
	s.frames = make([]frameState, maxID+1)
	s.planMeta = s.planMeta[:0]
	for i := range s.env.Set.Messages {
		m := &s.env.Set.Messages[i]
		period := m.Period
		if period <= 0 {
			period = m.Deadline
		}
		s.planMeta = append(s.planMeta, planEntry{
			msg: reliability.Message{
				Name:   m.Name,
				Bits:   frame.WireBits(m.Bytes()),
				Period: period,
			},
			id:   m.ID,
			soft: m.Kind != signal.Periodic,
			prio: m.Priority,
		})
	}
	if s.opts.BER <= 0 {
		return nil // fault-free assumption: no planned retransmissions
	}
	msgs := make([]reliability.Message, len(s.planMeta))
	for i, e := range s.planMeta {
		msgs[i] = e.msg
	}
	planFn := reliability.PlanDifferentiated
	if s.opts.Uniform {
		planFn = reliability.PlanUniform
	}
	plan, err := planFn(msgs, s.opts.BER, s.opts.Unit, s.opts.Goal, s.opts.MaxRetx)
	if err != nil {
		return err
	}
	for i, e := range s.planMeta {
		if f := s.frame(e.id); f != nil {
			f.k = plan.Retransmissions[i]
		}
	}
	s.stats.PlannedRetx = plan.Total()
	return nil
}

// CycleStart implements sim.Scheduler.
func (s *Scheduler) CycleStart(_ int64, now timebase.Macrotick) {
	s.purgeExpired(now)
	s.adaptTick(now)
}

// purgeExpired discards retransmission jobs whose deadline has passed.
// The queue is in deadline order, so they are its head.  The instance
// never left its home queue, so the engine's expiry sweep counts its
// drop.
//
//perf:hotpath
func (s *Scheduler) purgeExpired(now timebase.Macrotick) {
	for queued := s.retx.items(); len(queued) > 0; queued = s.retx.items() {
		j := queued[0]
		if j.deadline == node.NoDeadline || now <= j.deadline {
			return
		}
		s.retx.remove(0)
		s.frames[j.in.Msg.ID].jobs--
	}
}

// StaticSlot implements sim.Scheduler.
//
//perf:hotpath
func (s *Scheduler) StaticSlot(ch frame.Channel, _ int64, slot int, now timebase.Macrotick) *sim.Transmission {
	if ch == frame.ChannelB {
		if s.opts.SingleChannel {
			return nil
		}
		if s.failoverActive {
			if tx := s.failoverStatic(slot, now); tx != nil {
				return tx
			}
		}
		// Channel B carries no primary static traffic: its whole
		// static segment is a steal pool.
		return s.pickSteal(ch, now)
	}

	// Channel A: the owner first.
	if m := s.env.StaticMsg(slot); m != nil && s.env.Attached(m.Node, ch) {
		ecu := s.env.ECU(m.Node)
		if in := ecu.PeekStatic(slot, now); in != nil {
			s.maybeSpawnCopies(in)
			return s.emit(sim.Transmission{
				Instance: in,
				Channel:  ch,
				Duration: s.env.FrameDuration(m),
				Retx:     in.Attempts > 0,
			})
		}
	}
	// Idle slot: steal it.
	return s.pickSteal(ch, now)
}

// pickSteal selects work for an idle static slot: retransmission jobs
// EDF-first (selectively skipping frames that do not fit), then soft
// dynamic messages (cooperative scheduling).
//
//perf:hotpath
func (s *Scheduler) pickSteal(ch frame.Channel, now timebase.Macrotick) *sim.Transmission {
	if !s.stealAllowed(ch) {
		// Suspect channel outside its probe cycle: burning proactive
		// copies on a likely-dead channel would defeat the plan.
		return nil
	}
	if tx := s.stealRetx(ch, now); tx != nil {
		return tx
	}
	return s.stealSoft(ch, now)
}

// stealRetx serves the retransmission queue.
//
//perf:hotpath
func (s *Scheduler) stealRetx(ch frame.Channel, now timebase.Macrotick) *sim.Transmission {
	if s.avoidRetx(ch) {
		return nil
	}
	capacity := s.env.Cfg.StaticSlotLen
	for _, j := range s.retx.items() {
		if !s.env.Attached(j.in.Msg.Node, ch) {
			continue
		}
		fits := j.duration <= capacity &&
			(j.deadline == node.NoDeadline || now+j.duration <= j.deadline)
		if fits {
			s.stats.StolenStatic++
			return s.emit(sim.Transmission{
				Instance: j.in,
				Channel:  ch,
				Duration: j.duration,
				Retx:     true,
				Stolen:   true,
				Detail:   "retx",
				Tag:      j,
			})
		}
		if s.opts.NoSelectiveSlack {
			return nil // head-of-line blocking (ablation)
		}
	}
	return nil
}

// stealSoft serves pending dynamic messages in static slack.
//
//perf:hotpath
func (s *Scheduler) stealSoft(ch frame.Channel, now timebase.Macrotick) *sim.Transmission {
	// The sorted candidate list the original formulation built was only
	// ever consumed up to its first usable entry, so a single-pass min
	// selection over the total (priority, release, ID) order returns the
	// identical candidate without collecting or sorting anything:
	//   - selective slack (default): the best candidate whose frame fits
	//     the remaining capacity;
	//   - NoSelectiveSlack: the best candidate overall, which is rejected
	//     outright when it does not fit.
	capacity := s.env.Cfg.StaticSlotLen
	var best softCand
	found := false
	for _, ecu := range s.env.OrderedECUs() {
		if !ecu.HasDynamicBuffered() {
			continue
		}
		in := ecu.PeekDynamicAny(now)
		if in == nil || !s.env.Attached(in.Msg.Node, ch) {
			continue
		}
		if s.isShed(in.Msg.ID) {
			continue
		}
		c := softCand{in: in, dur: s.env.FrameDuration(in.Msg)}
		if !s.opts.NoSelectiveSlack && c.dur > capacity {
			continue
		}
		if !found || softLess(c, best) {
			best = c
			found = true
		}
	}
	if !found || best.dur > capacity {
		return nil
	}
	s.stats.StolenSoft++
	return s.emit(sim.Transmission{
		Instance: best.in,
		Channel:  ch,
		Duration: best.dur,
		Retx:     best.in.Attempts > 0,
		Stolen:   true,
		Detail:   "coop-dynamic",
	})
}

// softLess orders slack-stealing candidates by (priority, release, ID).
//
//perf:hotpath
func softLess(x, y softCand) bool {
	a, b := x.in, y.in
	if a.Msg.Priority != b.Msg.Priority {
		return a.Msg.Priority < b.Msg.Priority
	}
	if a.Release != b.Release {
		return a.Release < b.Release
	}
	return a.Msg.ID < b.Msg.ID
}

// DynamicSlot implements sim.Scheduler: the FTDMA walk serves the priority
// queue of the slot counter's frame ID, falling back to a retransmission
// job with the matching frame ID.
//
//perf:hotpath
func (s *Scheduler) DynamicSlot(ch frame.Channel, _ int64, slotCounter, _, remaining int, now timebase.Macrotick) *sim.Transmission {
	if ch == frame.ChannelB && s.opts.SingleChannel {
		return nil
	}
	m := s.env.DynamicMsg(slotCounter)
	if m == nil || !s.env.Attached(m.Node, ch) {
		return nil
	}
	if s.isShed(slotCounter) {
		return nil // shed by the adaptive controller
	}
	ecu := s.env.ECU(m.Node)
	dur := s.env.FrameDuration(m)
	if s.env.MinislotsFor(m) > remaining {
		return nil
	}
	if in := ecu.PeekDynamicFor(slotCounter, now); in != nil {
		s.maybeSpawnCopies(in)
		return s.emit(sim.Transmission{
			Instance: in,
			Channel:  ch,
			Duration: dur,
			Retx:     in.Attempts > 0,
		})
	}
	// Retransmission job for this frame ID, if any fits the window.
	if s.frames[slotCounter].jobs == 0 {
		return nil
	}
	for _, j := range s.retx.items() {
		if j.in.Msg.ID != slotCounter {
			continue
		}
		if j.deadline != node.NoDeadline && now+j.duration > j.deadline {
			continue
		}
		if s.env.Cfg.MinislotsForFrame(j.duration) > remaining {
			continue
		}
		return s.emit(sim.Transmission{
			Instance: j.in,
			Channel:  ch,
			Duration: j.duration,
			Retx:     true,
			Detail:   "retx-dynamic",
			Tag:      j,
		})
	}
	return nil
}

// maybeSpawnCopies enqueues the k_z blind copy jobs of an instance the
// first time its primary transmission is scheduled, as the frame's spawn
// watermark tells.
func (s *Scheduler) maybeSpawnCopies(in *node.Instance) {
	f := s.frame(in.Msg.ID)
	if f == nil || f.k <= 0 || in.Seq <= f.spawnedSeq {
		return
	}
	f.spawnedSeq = in.Seq
	for range f.k {
		s.enqueueJob(in)
	}
}

// Result implements sim.Scheduler.  Replication is proactive: every copy
// job is one wire attempt, retired once transmitted regardless of outcome
// (FlexRay has no acknowledgements).  A delivered instance leaves its home
// queue; its remaining copies still go out.
func (s *Scheduler) Result(tx *sim.Transmission, ok bool, _ timebase.Macrotick) {
	s.observe(tx, ok)
	if j, isJob := tx.Tag.(*retxJob); isJob {
		s.removeJob(j)
	}
	if tx.Instance.Done {
		s.finish(tx.Instance)
	}
}

// finish takes a delivered instance out of its home queue.  Any
// not-yet-sent copies stay queued: without acknowledgements the protocol
// cannot cancel them, and their bandwidth cost is part of the scheme.
func (s *Scheduler) finish(in *node.Instance) {
	ecu := s.env.ECU(in.Msg.Node)
	if in.Msg.Kind == signal.Periodic {
		ecu.RemoveStatic(in)
	} else {
		ecu.RemoveDynamic(in)
	}
}

// enqueueJob creates one retransmission job and inserts it into the EDF
// queue.
func (s *Scheduler) enqueueJob(in *node.Instance) {
	s.nextSeq++
	j := s.jobArena.new()
	*j = retxJob{
		in:       in,
		deadline: in.Deadline,
		duration: s.env.FrameDuration(in.Msg),
		seq:      s.nextSeq,
	}
	// Binary insertion by (deadline, seq).  seq is unique and strictly
	// increasing, so the order is total and the queue position matches
	// what append + sort.SliceStable produced: among equal deadlines the
	// new job (largest seq) lands last.
	s.retx.insert(s.retx.search(j), j)
	s.frames[in.Msg.ID].jobs++
	s.stats.JobsCreated++
}

// removeJob deletes a job from the queue.  The queue is sorted by the
// total (deadline, seq) order, so the job's position is the binary
// search's.
//
//perf:hotpath
func (s *Scheduler) removeJob(j *retxJob) {
	i := s.retx.search(j)
	if queued := s.retx.items(); i < len(queued) && queued[i] == j {
		s.retx.remove(i)
		s.frames[j.in.Msg.ID].jobs--
	}
}

// InstanceDropped implements sim.Scheduler.
func (s *Scheduler) InstanceDropped(in *node.Instance, _ timebase.Macrotick) {
	// Copies of a dropped instance are pointless: discard them.
	s.retx.removeIf(func(j *retxJob) bool {
		if j.in != in {
			return false
		}
		s.frames[in.Msg.ID].jobs--
		return true
	})
}

// RetxQueueLen returns the number of pending retransmission jobs (for
// tests).
func (s *Scheduler) RetxQueueLen() int { return len(s.retx.items()) }

// jobQueue is the retransmission queue, held as buf[head:] so that taking
// the head is O(1).  Removing or inserting a job shifts whichever side of
// it is shorter: in batch mode the queue holds hundreds of jobs, and every
// shifted pointer costs a write barrier while the collector marks.  An
// insertion at the tail compacts only when the backing array is full, and
// vacated slots are nil.
type jobQueue struct {
	buf  []*retxJob
	head int
}

// items returns the queued jobs in order; the slice aliases the queue and
// is valid until its next change.
func (q *jobQueue) items() []*retxJob { return q.buf[q.head:] }

// search returns the number of queued jobs ordered before j by (deadline,
// seq): j's position when queued, its insertion point otherwise.
//
//perf:hotpath
func (q *jobQueue) search(j *retxJob) int {
	items := q.items()
	lo, hi := 0, len(items)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o := items[mid]; o.deadline < j.deadline || (o.deadline == j.deadline && o.seq < j.seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert puts j at position i of items().
func (q *jobQueue) insert(i int, j *retxJob) {
	n := len(q.buf) - q.head
	if q.head > 0 && i < n-i {
		q.head--
		copy(q.buf[q.head:q.head+i], q.buf[q.head+1:])
		q.buf[q.head+i] = j
		return
	}
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, nil)
	items := q.items()
	copy(items[i+1:], items[i:])
	items[i] = j
}

// remove deletes position i of items().
func (q *jobQueue) remove(i int) {
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

// removeIf removes every job drop selects, keeping the others in order;
// drop sees each job once, in queue order.  It scans to the first such
// job before rewriting anything: most calls remove nothing, and the
// untouched prefix needs no pointer writes.
func (q *jobQueue) removeIf(drop func(*retxJob) bool) {
	items := q.items()
	i := 0
	for i < len(items) && !drop(items[i]) {
		i++
	}
	if i == len(items) {
		return
	}
	keep := items[:i]
	for _, j := range items[i+1:] {
		if !drop(j) {
			keep = append(keep, j)
		}
	}
	clear(items[len(keep):])
	q.buf = q.buf[:q.head+len(keep)]
	if len(keep) == 0 {
		q.buf, q.head = q.buf[:0], 0
	}
}

// reset empties the queue, keeping its backing array.
func (q *jobQueue) reset() {
	clear(q.buf)
	q.buf, q.head = q.buf[:0], 0
}
