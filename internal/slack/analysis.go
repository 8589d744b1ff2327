// Package slack implements the slack-stealing machinery of the paper
// (Sections III-B, III-C and III-F): an exact offline analysis of the
// fixed-priority periodic schedule, kept as the paper's table of the idle
// time available before each job deadline, and a runtime slack stealer
// that admits hard-deadline aperiodic tasks (retransmitted segments) and
// serves soft-deadline aperiodic tasks (dynamic segments) in stolen slack
// without endangering any periodic deadline.
//
// Terminology follows Thuel–Lehoczky and the paper.  With tasks indexed by
// decreasing priority, "level i" (1-based) covers the i highest-priority
// tasks.  A level-i idle instant is one at which no task of level i has
// pending work; the cumulative level-i idle time A_i(t) is the amount of
// slack that processing at priority i or higher may steal before t.  The
// runtime invariant is
//
//	C(t) + I_i(t) ≤ A_i(d)    for every future deadline d of task i,
//
// where C(t) is aperiodic processing consumed so far and I_i(t) is level-i
// inactivity (level-i idle time that elapsed unused).  The available slack
// at top priority is S(t) = min_i [A_i(next deadline of τ_i) − C(t) −
// I_i(t)], the paper's S_{i,t} = A_{i(r_i(t)+1)} − C_i(t) − I_i(t).
package slack

import (
	"errors"
	"fmt"

	"github.com/flexray-go/coefficient/internal/task"
	"github.com/flexray-go/coefficient/internal/timebase"
)

// Errors returned by the analysis.
var (
	// ErrUnschedulable is returned when a periodic job misses its deadline
	// in the fault-free schedule: there is no slack to steal from an
	// infeasible task set.
	ErrUnschedulable = errors.New("slack: periodic task set unschedulable")
	// ErrEmptySet is returned for an empty task set.
	ErrEmptySet = errors.New("slack: empty task set")
	// ErrBadLevel is returned for out-of-range level or job queries.
	ErrBadLevel = errors.New("slack: level out of range")
)

// Analysis holds the paper's slack table of a periodic task set ("we
// further use a table to store and maintain the identified values",
// Section III-F): for every level i and every deadline d of task i inside
// the simulated window, A_i(d), the level-i idle time before d.  Deadlines
// beyond the window fold onto the table by whole hyperperiods.  It is
// immutable after construction and safe for concurrent use.
type Analysis struct {
	set *task.Set
	// window is the simulated horizon: maxOffset + 2·hyperperiod.
	window timebase.Macrotick
	// hyper is the task-set hyperperiod.
	hyper timebase.Macrotick
	// rows[i][k-1] is A_{i+1}(d_k), the level-(i+1) idle time before the
	// k-th deadline of task i, for every d_k ≤ window.  The rows share one
	// exactly sized backing array.
	rows [][]timebase.Macrotick
	// idlePerHyper[i] is the level-(i+1) idle time accrued per
	// hyperperiod in steady state, A(window) − A(window − hyperperiod),
	// used to extrapolate beyond the window.
	idlePerHyper []timebase.Macrotick
}

// NewAnalysis simulates the fixed-priority preemptive schedule of the set
// over maxOffset + 2 hyperperiods, verifies every periodic deadline, and
// builds the slack table.
func NewAnalysis(s *task.Set) (*Analysis, error) {
	if s == nil || len(s.Tasks) == 0 {
		return nil, ErrEmptySet
	}
	hyper, err := s.Hyperperiod()
	if err != nil {
		return nil, err
	}
	window := s.MaxOffset() + 2*hyper

	n := len(s.Tasks)
	a := &Analysis{
		set:          s,
		window:       window,
		hyper:        hyper,
		rows:         make([][]timebase.Macrotick, n),
		idlePerHyper: make([]timebase.Macrotick, n),
	}
	// The window spans two periods past every offset, so each row has at
	// least two deadlines.
	deadlines := func(t task.Periodic) int { return int((window-t.Phi-t.D)/t.T) + 1 }
	total := 0
	for _, t := range s.Tasks {
		total += deadlines(t)
	}
	backing := make([]timebase.Macrotick, total)
	for i, t := range s.Tasks {
		k := deadlines(t)
		a.rows[i], backing = backing[:0:k], backing[k:]
	}
	if err := a.simulate(); err != nil {
		return nil, err
	}
	return a, nil
}

// simulate runs the fixed-priority preemptive schedule of the set over
// [0, window) and fills the slack table.  It steps to every release,
// completion and deadline and to the mark window − hyperperiod; at a
// deadline d of task i it records d minus the execution of tasks 0..i so
// far, and at the mark and the window's end it records every level, whose
// difference is idlePerHyper.  It fails with ErrUnschedulable on the first
// periodic deadline miss.
func (a *Analysis) simulate() error {
	tasks := a.set.Tasks
	n := len(tasks)
	window, mark := a.window, a.window-a.hyper
	remaining := make([]timebase.Macrotick, n) // unfinished released work
	nextRel := make([]timebase.Macrotick, n)
	nextDl := make([]timebase.Macrotick, n) // next deadline to record
	executed := make([]timebase.Macrotick, n)
	released := make([]int64, n) // jobs released so far
	completed := make([]int64, n)
	dlMin := window
	for i, t := range tasks {
		nextRel[i] = t.Phi
		nextDl[i] = t.AbsDeadline(1)
		dlMin = min(dlMin, nextDl[i])
	}

	release := func(now timebase.Macrotick) {
		for i, t := range tasks {
			for nextRel[i] <= now {
				remaining[i] += t.C
				released[i]++
				nextRel[i] += t.T
			}
		}
	}
	// nextEvent returns the earliest release, deadline to record or mark
	// after now, capped at the window.
	nextEvent := func(now timebase.Macrotick) timebase.Macrotick {
		e := min(window, dlMin)
		if now < mark {
			e = min(e, mark)
		}
		for _, r := range nextRel {
			e = min(e, r)
		}
		return e
	}
	// checkCompletions verifies that each job completed no later than its
	// deadline once the task's executed time crosses a job boundary.
	checkCompletions := func(i int, now timebase.Macrotick) error {
		t := tasks[i]
		for completed[i] < released[i] && executed[i] >= timebase.Macrotick(completed[i]+1)*t.C {
			completed[i]++
			if d := t.AbsDeadline(completed[i]); now > d {
				return fmt.Errorf("%w: task %q job %d finished at %d, deadline %d",
					ErrUnschedulable, t.Name, completed[i], now, d)
			}
		}
		return nil
	}
	// record fills the table at an instant where a deadline, the mark or
	// the window's end falls, summing the executed counters once.
	record := func(now timebase.Macrotick) {
		var busy timebase.Macrotick
		dlMin = window
		for i, t := range tasks {
			busy += executed[i]
			idle := now - busy
			if nextDl[i] == now {
				a.rows[i] = append(a.rows[i], idle)
				nextDl[i] += t.T
			}
			dlMin = min(dlMin, nextDl[i])
			switch now {
			case mark:
				a.idlePerHyper[i] = -idle
			case window:
				a.idlePerHyper[i] += idle
			}
		}
	}

	now := timebase.Macrotick(0)
	release(now)
	for now < window {
		// Highest-priority pending task.
		run := -1
		for i := 0; i < n; i++ {
			if remaining[i] > 0 {
				run = i
				break
			}
		}
		next := nextEvent(now)
		if run == -1 {
			// Idle until the next event.
			now = next
		} else {
			// Run until completion of the current chunk or the next event.
			span := min(remaining[run], next-now)
			remaining[run] -= span
			executed[run] += span
			now += span
			if err := checkCompletions(run, now); err != nil {
				return err
			}
		}
		if now == dlMin || now == mark || now == window {
			record(now)
		}
		release(now)
	}
	// A deadline can also be missed by work still pending at the horizon;
	// the window covers two hyperperiods so any structural miss surfaces
	// as a late completion above.  Verify nothing overdue remains.
	for i, t := range tasks {
		if completed[i] < released[i] {
			d := t.AbsDeadline(completed[i] + 1)
			if d < window {
				return fmt.Errorf("%w: task %q job %d unfinished at horizon, deadline %d",
					ErrUnschedulable, t.Name, completed[i]+1, d)
			}
		}
	}
	return nil
}

// Levels returns the number of priority levels (= tasks).
func (a *Analysis) Levels() int { return len(a.set.Tasks) }

// Hyperperiod returns the task-set hyperperiod.
func (a *Analysis) Hyperperiod() timebase.Macrotick { return a.hyper }

// Window returns the simulated horizon.
func (a *Analysis) Window() timebase.Macrotick { return a.window }

// Set returns the analyzed task set.
func (a *Analysis) Set() *task.Set { return a.set }

// IdlePerHyperperiod returns the steady-state level idle time accrued per
// hyperperiod for the 1-based level.
func (a *Analysis) IdlePerHyperperiod(level int) (timebase.Macrotick, error) {
	if level < 1 || level > len(a.rows) {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadLevel, level, len(a.rows))
	}
	return a.idlePerHyper[level-1], nil
}

// IdleBefore returns A_level(d_k), the level idle time available before
// the k-th (1-based) deadline of the level's task: the slack table's entry
// for that job.  Beyond the window it folds d_k by whole hyperperiods onto
// the table and adds the steady-state idle of each.
func (a *Analysis) IdleBefore(level int, k int64) (timebase.Macrotick, error) {
	if level < 1 || level > len(a.rows) {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadLevel, level, len(a.rows))
	}
	if k < 1 {
		return 0, fmt.Errorf("%w: job %d of level %d", ErrBadLevel, k, level)
	}
	return a.idleBefore(level-1, k), nil
}

// idleBefore is IdleBefore for a 0-based task index in range and k ≥ 1, in
// O(1).  A deadline d_k past the window folds into [window − hyper, window)
// by m = (d_k − window)/hyper + 1 hyperperiods, each of which holds
// hyper/T deadlines of the task.
func (a *Analysis) idleBefore(i int, k int64) timebase.Macrotick {
	row := a.rows[i]
	if k <= int64(len(row)) {
		return row[k-1]
	}
	tk := a.set.Tasks[i]
	m := (tk.AbsDeadline(k)-a.window)/a.hyper + 1
	return row[k-1-int64(m*(a.hyper/tk.T))] + m*a.idlePerHyper[i]
}

// NextDeadline returns the earliest absolute deadline of the level's task
// (0-based index level−1) at or after t.
func (a *Analysis) NextDeadline(level int, t timebase.Macrotick) (timebase.Macrotick, error) {
	if level < 1 || level > len(a.rows) {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadLevel, level, len(a.rows))
	}
	tk := a.set.Tasks[level-1]
	first := tk.AbsDeadline(1)
	if t <= first {
		return first, nil
	}
	k := (t - first + tk.T - 1) / tk.T
	return first + k*tk.T, nil
}

// LastDeadlineIn returns the latest absolute deadline of the level's task in
// the half-open interval (t1, t2], and ok=false when there is none.
func (a *Analysis) LastDeadlineIn(level int, t1, t2 timebase.Macrotick) (timebase.Macrotick, bool, error) {
	if level < 1 || level > len(a.rows) {
		return 0, false, fmt.Errorf("%w: %d of %d", ErrBadLevel, level, len(a.rows))
	}
	tk := a.set.Tasks[level-1]
	first := tk.AbsDeadline(1)
	if t2 < first {
		return 0, false, nil
	}
	k := (t2 - first) / tk.T
	d := first + k*tk.T
	if d <= t1 {
		return 0, false, nil
	}
	return d, true, nil
}

// TableEntry is one row of the paper's precomputed slack table: a job
// deadline of the level's task together with the level idle time available
// before it ("we further use a table to store and maintain the identified
// values", Section III-F).
type TableEntry struct {
	// Deadline is the absolute deadline d_{i,k} of the k-th job.
	Deadline timebase.Macrotick
	// Available is A_i(d_{i,k}), the level-i idle time before it.
	Available timebase.Macrotick
}

// SlackTable returns the slack table of the 1-based level for every job
// deadline up to the horizon.
func (a *Analysis) SlackTable(level int, horizon timebase.Macrotick) ([]TableEntry, error) {
	if level < 1 || level > len(a.rows) {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadLevel, level, len(a.rows))
	}
	tk := a.set.Tasks[level-1]
	var out []TableEntry
	for k := int64(1); ; k++ {
		d := tk.AbsDeadline(k)
		if d > horizon {
			break
		}
		out = append(out, TableEntry{Deadline: d, Available: a.idleBefore(level-1, k)})
	}
	return out, nil
}
