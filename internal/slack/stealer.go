package slack

import (
	"errors"
	"fmt"
	"sort"

	"github.com/flexray-go/coefficient/internal/task"
	"github.com/flexray-go/coefficient/internal/timebase"
)

// Errors returned by the stealer.
var (
	// ErrTimeTravel is returned when the caller reports events out of
	// order.
	ErrTimeTravel = errors.New("slack: time must not move backwards")
	// ErrRejected is returned by AdmitHard when the job cannot be
	// guaranteed.
	ErrRejected = errors.New("slack: hard aperiodic rejected")
	// ErrOverReport is returned when the caller reports more periodic
	// execution than has been released.
	ErrOverReport = errors.New("slack: periodic execution exceeds released work")
)

// Stealer is the runtime half of the slack-stealing scheme.  The caller
// (the bus scheduler) reports how every unit of time was spent —
// RunPeriodic, RunAperiodic, RunAperiodicSoft or Idle — and the stealer
// answers two questions:
//
//   - Available: how much aperiodic processing can run right now at top
//     priority without endangering any periodic deadline (the paper's
//     S_{i,t} = A_{i(r_i(t)+1)} − C_i(t) − I_i(t), minimized over levels);
//   - AdmitHard: can a hard-deadline aperiodic task (a retransmitted
//     segment) be guaranteed together with all previously guaranteed ones.
//
// The capacity over an interval [t_a, t_b] is computed with the paper's
// interval-series procedure (Section III-C): slack becomes available in
// steps as periodic jobs complete, so the stealer projects the
// fixed-priority schedule forward event by event, stealing greedily, rather
// than evaluating a closed form (which would overestimate — unused early
// slack turns into level inactivity and is lost).
//
// Stealer is not safe for concurrent use.
type Stealer struct {
	a   *Analysis
	now timebase.Macrotick
	// consumed is C(t): total aperiodic processing so far (top priority).
	consumed timebase.Macrotick
	// inactive[i] is I_{i+1}(t): level-(i+1) idle time elapsed unused.
	inactive []timebase.Macrotick
	// executed[i] is the total periodic execution reported for task i.
	executed []timebase.Macrotick
	// guaranteed holds admitted-but-unfinished hard aperiodic jobs in
	// EDF order.
	guaranteed []*guaranteedJob
	// cacheA and cacheCompleted memoize A_i(d_i) per level keyed by the
	// completed-job count: the table entry is pure in (level, job) and the
	// job only moves when one of the level completes, so slackAt's inner
	// loop reduces to subtractions between completions.  On long runs most
	// lookups fold beyond the table's window, and the memo is cheaper than
	// the fold's division.
	cacheA         []timebase.Macrotick
	cacheCompleted []int64
}

// guaranteedJob tracks the remaining work of an admitted hard aperiodic.
type guaranteedJob struct {
	job       task.Aperiodic
	remaining timebase.Macrotick
}

// NewStealer returns a runtime stealer over the analysis, starting at time
// zero.
func NewStealer(a *Analysis) *Stealer {
	st := &Stealer{
		a:        a,
		inactive: make([]timebase.Macrotick, a.Levels()),
		executed: make([]timebase.Macrotick, a.Levels()),
	}
	st.cacheA = make([]timebase.Macrotick, a.Levels())
	st.cacheCompleted = make([]int64, a.Levels())
	for i := range st.cacheCompleted {
		st.cacheCompleted[i] = -1
	}
	return st
}

// Reset rewinds the stealer to time zero, as NewStealer over the same
// analysis would return, reusing every counter slice in place.  The
// analysis itself is immutable and shared across replicas.
//
//perf:hotpath
func (st *Stealer) Reset() {
	st.now = 0
	st.consumed = 0
	for i := range st.inactive {
		st.inactive[i] = 0
	}
	for i := range st.executed {
		st.executed[i] = 0
	}
	for i := range st.cacheA {
		st.cacheA[i] = 0
	}
	for i := range st.cacheCompleted {
		st.cacheCompleted[i] = -1
	}
	for i := range st.guaranteed {
		st.guaranteed[i] = nil
	}
	st.guaranteed = st.guaranteed[:0]
}

// Now returns the stealer's current time.
func (st *Stealer) Now() timebase.Macrotick { return st.now }

// Consumed returns C(t), the total aperiodic processing reported so far.
func (st *Stealer) Consumed() timebase.Macrotick { return st.consumed }

// Inactivity returns I_level(t) for a 1-based level.
func (st *Stealer) Inactivity(level int) (timebase.Macrotick, error) {
	if level < 1 || level > len(st.inactive) {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadLevel, level, len(st.inactive))
	}
	return st.inactive[level-1], nil
}

// releasedWork returns the total work of task i released by time t.
func (st *Stealer) releasedWork(i int, t timebase.Macrotick) timebase.Macrotick {
	tk := st.a.set.Tasks[i]
	if t < tk.Phi {
		return 0
	}
	jobs := (t-tk.Phi)/tk.T + 1
	return jobs * tk.C
}

// Pending returns the unfinished released periodic work of 0-based task i
// at the current time.
func (st *Stealer) Pending(i int) (timebase.Macrotick, error) {
	if i < 0 || i >= st.a.Levels() {
		return 0, fmt.Errorf("%w: task index %d", ErrBadLevel, i)
	}
	return st.releasedWork(i, st.now) - st.executed[i], nil
}

// RunPeriodic reports that the 0-based periodic task taskIdx executed for
// dt starting at the current time.  Levels 1..taskIdx accrue inactivity
// (their own work was absent while a lower-priority task ran).
func (st *Stealer) RunPeriodic(taskIdx int, dt timebase.Macrotick) error {
	if taskIdx < 0 || taskIdx >= st.a.Levels() {
		return fmt.Errorf("%w: task index %d", ErrBadLevel, taskIdx)
	}
	if dt < 0 {
		return fmt.Errorf("%w: dt %d", ErrTimeTravel, dt)
	}
	if st.executed[taskIdx]+dt > st.releasedWork(taskIdx, st.now+dt) {
		return fmt.Errorf("%w: task %d", ErrOverReport, taskIdx)
	}
	for i := 0; i < taskIdx; i++ {
		st.inactive[i] += dt
	}
	st.executed[taskIdx] += dt
	st.now += dt
	return nil
}

// RunAperiodic reports that aperiodic work executed for dt at top priority
// starting at the current time.  It also retires guaranteed hard jobs in
// EDF order.
func (st *Stealer) RunAperiodic(dt timebase.Macrotick) error {
	if dt < 0 {
		return fmt.Errorf("%w: dt %d", ErrTimeTravel, dt)
	}
	st.consumed += dt
	st.now += dt
	// Drain guaranteed jobs EDF-first.
	rem := dt
	for rem > 0 && len(st.guaranteed) > 0 {
		g := st.guaranteed[0]
		use := g.remaining
		if use > rem {
			use = rem
		}
		g.remaining -= use
		rem -= use
		if g.remaining == 0 {
			st.guaranteed = st.guaranteed[1:]
		}
	}
	return nil
}

// RunAperiodicSoft reports soft aperiodic service for dt at top priority:
// consumption counts against the slack like RunAperiodic, but the
// guaranteed hard queue is left untouched.
func (st *Stealer) RunAperiodicSoft(dt timebase.Macrotick) error {
	if dt < 0 {
		return fmt.Errorf("%w: dt %d", ErrTimeTravel, dt)
	}
	st.consumed += dt
	st.now += dt
	return nil
}

// Idle reports that the bus idled for dt starting at the current time:
// every level accrues inactivity.  In a TDMA realization this also covers
// time where periodic work was pending but its slot had not yet arrived.
func (st *Stealer) Idle(dt timebase.Macrotick) error {
	if dt < 0 {
		return fmt.Errorf("%w: dt %d", ErrTimeTravel, dt)
	}
	for i := range st.inactive {
		st.inactive[i] += dt
	}
	st.now += dt
	return nil
}

// DropGuaranteed removes an admitted hard job by name (e.g. when its frame
// became obsolete).  It reports whether a job was removed.
func (st *Stealer) DropGuaranteed(name string) bool {
	for i, g := range st.guaranteed {
		if g.job.Name == name {
			st.guaranteed = append(st.guaranteed[:i], st.guaranteed[i+1:]...)
			return true
		}
	}
	return false
}

// Available returns the aperiodic processing available immediately at top
// priority: max(0, min_i S_i(t)) with each level's constraint taken at the
// deadline of its next *uncompleted* job — the paper's A_{i(r_i(t)+1)},
// where r_i(t) is the number of τ_i jobs completed by t.  Pending
// guaranteed hard work is NOT subtracted; see AvailableSoft for the
// soft-aperiodic view.
func (st *Stealer) Available() (timebase.Macrotick, error) {
	s := st.slackAt(st.consumed, st.inactive, st.executed)
	if s < 0 {
		s = 0
	}
	return s, nil
}

// slackAt evaluates min_i [A_i(d_i) − c − inact_i] with d_i the deadline of
// task i's next uncompleted job, derived from executed work (jobs of one
// task complete FIFO, C units each).
func (st *Stealer) slackAt(c timebase.Macrotick, inact, executed []timebase.Macrotick) timebase.Macrotick {
	min := timebase.Macrotick(0)
	for level := 1; level <= st.a.Levels(); level++ {
		tk := st.a.set.Tasks[level-1]
		completed := int64(executed[level-1] / tk.C)
		a := st.cacheA[level-1]
		if st.cacheCompleted[level-1] != completed {
			a = st.a.idleBefore(level-1, completed+1)
			st.cacheA[level-1] = a
			st.cacheCompleted[level-1] = completed
		}
		s := a - c - inact[level-1]
		if level == 1 || s < min {
			min = s
		}
	}
	return min
}

// AvailableSoft returns the slack available for soft aperiodic service
// right now: Available() minus the remaining work of guaranteed hard
// aperiodics, clamped at zero.  Serving soft work beyond this could void a
// hard guarantee.
func (st *Stealer) AvailableSoft() (timebase.Macrotick, error) {
	avail, err := st.Available()
	if err != nil {
		return 0, err
	}
	avail -= st.GuaranteedBacklog()
	if avail < 0 {
		avail = 0
	}
	return avail, nil
}

// GuaranteedBacklog returns the total remaining work of admitted hard
// aperiodic jobs.
func (st *Stealer) GuaranteedBacklog() timebase.Macrotick {
	var total timebase.Macrotick
	for _, g := range st.guaranteed {
		total += g.remaining
	}
	return total
}

// GuaranteedCount returns the number of admitted-but-unfinished hard jobs.
func (st *Stealer) GuaranteedCount() int { return len(st.guaranteed) }

// Capacity returns the maximum aperiodic processing completable in
// [now, tb] at top priority without violating any periodic deadline.  It
// projects the fixed-priority schedule forward from the current state,
// stealing greedily: steal min_i S_i whenever positive, steal freely while
// the projection is idle with no pending work (converting inactivity to
// consumption is a wash), and otherwise execute periodic work until the
// next release or completion relaxes the binding constraint — the paper's
// t_β stepping.  The result ignores already-guaranteed hard jobs; AdmitHard
// accounts for those.
func (st *Stealer) Capacity(tb timebase.Macrotick) (timebase.Macrotick, error) {
	if tb < st.now {
		return 0, fmt.Errorf("%w: tb %d before now %d", ErrTimeTravel, tb, st.now)
	}
	n := st.a.Levels()
	tasks := st.a.set.Tasks

	// Projection state, copied from live counters.
	tau := st.now
	simC := st.consumed
	simI := append([]timebase.Macrotick(nil), st.inactive...)
	simExec := append([]timebase.Macrotick(nil), st.executed...)
	pending := make([]timebase.Macrotick, n)
	nextRel := make([]timebase.Macrotick, n)
	for i, tk := range tasks {
		pending[i] = st.releasedWork(i, tau) - st.executed[i]
		if pending[i] < 0 {
			pending[i] = 0
		}
		nextRel[i] = tk.NextRelease(tau + 1)
	}
	release := func() {
		for i, tk := range tasks {
			for nextRel[i] <= tau {
				pending[i] += tk.C
				nextRel[i] += tk.T
			}
		}
	}
	earliestRelease := func() timebase.Macrotick {
		e := nextRel[0]
		for _, r := range nextRel[1:] {
			if r < e {
				e = r
			}
		}
		return e
	}

	var stolen timebase.Macrotick
	for tau < tb {
		// Steal immediately available slack.
		if s := st.slackAt(simC, simI, simExec); s > 0 {
			if left := tb - tau; s > left {
				s = left
			}
			stolen += s
			simC += s
			tau += s
			release()
			continue
		}
		// Highest-priority pending task.
		run := -1
		for i := 0; i < n; i++ {
			if pending[i] > 0 {
				run = i
				break
			}
		}
		if run == -1 {
			// Idle with no pending work: stealing here trades
			// inactivity for consumption one-for-one, so it is
			// free.  Steal until the next release (or tb).
			gap := earliestRelease()
			if gap > tb {
				gap = tb
			}
			if gap <= tau {
				gap = tau + 1
			}
			stolen += gap - tau
			simC += gap - tau
			tau = gap
			release()
			continue
		}
		// Execute the task until its pending work drains or the next
		// release, whichever first; the constraint can only relax at
		// such boundaries.
		span := pending[run]
		if r := earliestRelease(); r-tau < span {
			span = r - tau
		}
		if span <= 0 {
			span = 1
		}
		for i := 0; i < run; i++ {
			simI[i] += span
		}
		pending[run] -= span
		simExec[run] += span
		tau += span
		release()
	}
	return stolen, nil
}

// AdmitHard runs the acceptance test for a hard aperiodic job arriving now:
// the job is guaranteed iff, with the job inserted in EDF order among the
// already-guaranteed jobs, the cumulative work due by every guaranteed
// deadline fits the capacity to that deadline.  On success the job is
// recorded; ErrRejected is returned otherwise (the stealer state is
// unchanged on rejection).
func (st *Stealer) AdmitHard(j task.Aperiodic) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if !j.Hard() {
		return fmt.Errorf("slack: AdmitHard on soft job %q", j.Name)
	}
	if j.Arrival > st.now {
		return fmt.Errorf("%w: job %q arrives at %d, now is %d",
			ErrTimeTravel, j.Name, j.Arrival, st.now)
	}
	if j.D <= st.now {
		return fmt.Errorf("%w: job %q deadline %d already passed", ErrRejected, j.Name, j.D)
	}

	// Candidate queue with the new job inserted in EDF order.
	cand := make([]*guaranteedJob, len(st.guaranteed), len(st.guaranteed)+1)
	copy(cand, st.guaranteed)
	nj := &guaranteedJob{job: j, remaining: j.P}
	pos := sort.Search(len(cand), func(i int) bool { return cand[i].job.D > j.D })
	cand = append(cand, nil)
	copy(cand[pos+1:], cand[pos:])
	cand[pos] = nj

	// Every EDF prefix must fit the capacity to its deadline.
	var due timebase.Macrotick
	for _, g := range cand {
		due += g.remaining
		capacity, err := st.Capacity(g.job.D)
		if err != nil {
			return err
		}
		if due > capacity {
			return fmt.Errorf("%w: %q needs %d by %d, capacity %d",
				ErrRejected, j.Name, due, g.job.D, capacity)
		}
	}
	st.guaranteed = cand
	return nil
}
