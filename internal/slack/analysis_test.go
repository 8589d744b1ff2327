package slack

import (
	"errors"
	"fmt"
	"testing"

	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/task"
	"github.com/flexray-go/coefficient/internal/timebase"
)

// twoTasks is a hand-analyzable set:
//
//	τ1: C=2, T=5,  D=5  (highest priority)
//	τ2: C=3, T=10, D=10
//
// Schedule over one hyperperiod (10): τ1 runs [0,2), τ2 [2,5), τ1 [5,7),
// idle [7,10).
//
//	level-1 idle: [2,5) ∪ [7,10) → A_1(10) = 6
//	level-2 idle: [7,10)        → A_2(10) = 3
func twoTasks(t *testing.T) *task.Set {
	t.Helper()
	s, err := task.NewSet([]task.Periodic{
		{Name: "t1", C: 2, T: 5, D: 5},
		{Name: "t2", C: 3, T: 10, D: 10},
	})
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	return s
}

func TestNewAnalysisErrors(t *testing.T) {
	if _, err := NewAnalysis(nil); !errors.Is(err, ErrEmptySet) {
		t.Errorf("NewAnalysis(nil) = %v, want ErrEmptySet", err)
	}
	if _, err := NewAnalysis(&task.Set{}); !errors.Is(err, ErrEmptySet) {
		t.Errorf("NewAnalysis(empty) = %v, want ErrEmptySet", err)
	}
}

func TestNewAnalysisRejectsUnschedulable(t *testing.T) {
	// Two tasks that each fit alone but miss together: τ1 hogs 3 of 5
	// every period, τ2 needs 3 by deadline 4.
	s, err := task.NewSet([]task.Periodic{
		{Name: "hog", C: 3, T: 5, D: 4},
		{Name: "victim", C: 3, T: 15, D: 5},
	})
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	if _, err := NewAnalysis(s); !errors.Is(err, ErrUnschedulable) {
		t.Fatalf("NewAnalysis = %v, want ErrUnschedulable", err)
	}
}

// The level idle before each deadline of the twoTasks schedule:
// level 1 (τ1, deadlines 5, 10, 15, 20) and level 2 (τ2, deadlines 10, 20).
func TestLevelIdleHandComputed(t *testing.T) {
	a, err := NewAnalysis(twoTasks(t))
	if err != nil {
		t.Fatalf("NewAnalysis: %v", err)
	}
	tests := []struct {
		level int
		k     int64
		want  timebase.Macrotick
	}{
		{1, 1, 3}, // [2,5) while τ2 runs
		{1, 2, 6}, // plus the processor idle [7,10)
		{1, 3, 9}, // second hyperperiod
		{1, 4, 12},
		{2, 1, 3}, // [7,10)
		{2, 2, 6},
	}
	for _, tt := range tests {
		got, err := a.IdleBefore(tt.level, tt.k)
		if err != nil {
			t.Fatalf("IdleBefore(%d, %d): %v", tt.level, tt.k, err)
		}
		if got != tt.want {
			t.Errorf("IdleBefore(%d, %d) = %d, want %d", tt.level, tt.k, got, tt.want)
		}
	}
}

func TestLevelIdleExtrapolation(t *testing.T) {
	a, err := NewAnalysis(twoTasks(t))
	if err != nil {
		t.Fatalf("NewAnalysis: %v", err)
	}
	// Window is 2 hyperperiods = 20.  Beyond it the pattern repeats.
	for _, tt := range []struct {
		level int
		k     int64
		want  timebase.Macrotick
	}{
		{1, 6, 18},    // deadline 30
		{1, 21, 63},   // deadline 105: 10*6 + A_1(5)=3
		{2, 100, 300}, // deadline 1000: 100 hyperperiods * 3
	} {
		got, err := a.IdleBefore(tt.level, tt.k)
		if err != nil {
			t.Fatalf("IdleBefore: %v", err)
		}
		if got != tt.want {
			t.Errorf("IdleBefore(%d, %d) = %d, want %d", tt.level, tt.k, got, tt.want)
		}
	}
	per, err := a.IdlePerHyperperiod(1)
	if err != nil || per != 6 {
		t.Errorf("IdlePerHyperperiod(1) = %d, %v; want 6", per, err)
	}
	per, err = a.IdlePerHyperperiod(2)
	if err != nil || per != 3 {
		t.Errorf("IdlePerHyperperiod(2) = %d, %v; want 3", per, err)
	}
}

func TestLevelIdleBadLevel(t *testing.T) {
	a, err := NewAnalysis(twoTasks(t))
	if err != nil {
		t.Fatalf("NewAnalysis: %v", err)
	}
	for _, q := range []struct {
		level int
		k     int64
	}{{0, 1}, {3, 1}, {1, 0}, {2, -1}} {
		if _, err := a.IdleBefore(q.level, q.k); !errors.Is(err, ErrBadLevel) {
			t.Errorf("IdleBefore(%d, %d) = %v, want ErrBadLevel", q.level, q.k, err)
		}
	}
}

func TestNextDeadline(t *testing.T) {
	a, err := NewAnalysis(twoTasks(t))
	if err != nil {
		t.Fatalf("NewAnalysis: %v", err)
	}
	tests := []struct {
		level int
		t     timebase.Macrotick
		want  timebase.Macrotick
	}{
		{1, 0, 5},
		{1, 5, 5},
		{1, 6, 10},
		{2, 0, 10},
		{2, 10, 10},
		{2, 11, 20},
		{1, 103, 105},
	}
	for _, tt := range tests {
		got, err := a.NextDeadline(tt.level, tt.t)
		if err != nil {
			t.Fatalf("NextDeadline: %v", err)
		}
		if got != tt.want {
			t.Errorf("NextDeadline(%d, %d) = %d, want %d", tt.level, tt.t, got, tt.want)
		}
	}
}

func TestLastDeadlineIn(t *testing.T) {
	a, err := NewAnalysis(twoTasks(t))
	if err != nil {
		t.Fatalf("NewAnalysis: %v", err)
	}
	tests := []struct {
		level  int
		t1, t2 timebase.Macrotick
		want   timebase.Macrotick
		ok     bool
	}{
		{1, 0, 4, 0, false},
		{1, 0, 5, 5, true},
		{1, 5, 12, 10, true},
		{1, 5, 5, 0, false}, // (5, 5] empty
		{2, 0, 9, 0, false},
		{2, 9, 30, 30, true},
	}
	for _, tt := range tests {
		got, ok, err := a.LastDeadlineIn(tt.level, tt.t1, tt.t2)
		if err != nil {
			t.Fatalf("LastDeadlineIn: %v", err)
		}
		if ok != tt.ok || got != tt.want {
			t.Errorf("LastDeadlineIn(%d, %d, %d) = (%d, %v), want (%d, %v)",
				tt.level, tt.t1, tt.t2, got, ok, tt.want, tt.ok)
		}
	}
}

func TestAnalysisWithOffsets(t *testing.T) {
	// τ1 offset 1: schedule is idle [0,1), τ1 [1,3), τ2 [3,6), τ1 [6,8),
	// idle [8,11)... hyperperiod 10, maxOffset 1.
	s, err := task.NewSet([]task.Periodic{
		{Name: "t1", C: 2, T: 5, Phi: 1, D: 5},
		{Name: "t2", C: 3, T: 10, D: 10},
	})
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	a, err := NewAnalysis(s)
	if err != nil {
		t.Fatalf("NewAnalysis: %v", err)
	}
	// Level-1 idle: [0,1) ∪ [3,6) ∪ [8,11) ..., τ1's deadlines 6, 11, 16;
	// level-2 idle: [0,1) ∪ [8,11) ∪ [18,21), τ2's deadlines 10, 20.
	for _, tt := range []struct {
		level int
		k     int64
		want  timebase.Macrotick
	}{
		{1, 1, 4}, {1, 2, 7}, {1, 3, 10}, {2, 1, 3}, {2, 2, 6},
	} {
		got, err := a.IdleBefore(tt.level, tt.k)
		if err != nil {
			t.Fatalf("IdleBefore: %v", err)
		}
		if got != tt.want {
			t.Errorf("IdleBefore(%d, %d) = %d, want %d", tt.level, tt.k, got, tt.want)
		}
	}
	if a.Window() != 21 { // maxOffset 1 + 2*10
		t.Errorf("Window() = %d, want 21", a.Window())
	}
}

func TestAnalysisAccessors(t *testing.T) {
	set := twoTasks(t)
	a, err := NewAnalysis(set)
	if err != nil {
		t.Fatalf("NewAnalysis: %v", err)
	}
	if a.Levels() != 2 {
		t.Errorf("Levels() = %d, want 2", a.Levels())
	}
	if a.Hyperperiod() != 10 {
		t.Errorf("Hyperperiod() = %d, want 10", a.Hyperperiod())
	}
	if a.Set() != set {
		t.Error("Set() does not return the analyzed set")
	}
	if _, err := a.IdlePerHyperperiod(0); !errors.Is(err, ErrBadLevel) {
		t.Errorf("IdlePerHyperperiod(0) = %v, want ErrBadLevel", err)
	}
}

// Check against an independent tick-level reference: the level idle time
// before every deadline up to three windows must match a brute-force tick
// simulation for a variety of small task sets.
func TestLevelIdleMatchesBruteForce(t *testing.T) {
	sets := [][]task.Periodic{
		{
			{Name: "a", C: 1, T: 4, D: 4},
			{Name: "b", C: 2, T: 6, D: 6},
		},
		{
			{Name: "a", C: 2, T: 5, D: 4},
			{Name: "b", C: 1, T: 7, D: 7},
			{Name: "c", C: 1, T: 10, D: 10},
		},
		{
			{Name: "a", C: 1, T: 3, Phi: 1, D: 3},
			{Name: "b", C: 2, T: 9, Phi: 2, D: 9},
		},
	}
	for si, tasks := range sets {
		s, err := task.NewSet(tasks)
		if err != nil {
			t.Fatalf("set %d: NewSet: %v", si, err)
		}
		a, err := NewAnalysis(s)
		if err != nil {
			t.Fatalf("set %d: NewAnalysis: %v", si, err)
		}
		if msg := compareWithBruteForce(a, 3*a.Window()); msg != "" {
			t.Fatalf("set %d: %s", si, msg)
		}
	}
}

// Randomized check of the table against the tick-level reference: small
// sets of 1–6 tasks with offsets and constrained deadlines, every deadline
// of every level up to three windows, and the same unschedulable verdicts
// as a brute-force deadline check over the analysis window.
func TestSlackTableMatchesBruteForce(t *testing.T) {
	rng := fault.NewRNG(20260601)
	periods := []timebase.Macrotick{2, 3, 4, 5, 6, 8, 10, 12, 15}
	schedulable := 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(6)
		tasks := make([]task.Periodic, 0, n)
		for i := 0; i < n; i++ {
			p := periods[rng.Intn(len(periods))]
			c := timebase.Macrotick(1 + rng.Intn(int(p)/2+1))
			d := c + timebase.Macrotick(rng.Intn(int(p-c)+1))
			phi := timebase.Macrotick(rng.Intn(int(p)))
			tasks = append(tasks, task.Periodic{Name: fmt.Sprint("t", i), C: c, T: p, Phi: phi, D: d})
		}
		s, err := task.NewSet(tasks)
		if err != nil {
			continue // overloaded draw
		}
		ok, msg := checkAgainstBruteForce(s)
		if msg != "" {
			t.Fatalf("trial %d (%+v): %s", trial, s.Tasks, msg)
		}
		if ok {
			schedulable++
		}
	}
	if schedulable < 100 {
		t.Fatalf("only %d schedulable draws; the generator no longer covers the table", schedulable)
	}
}

// FuzzSlackTable decodes a task set of up to four tasks with periods up to
// 24 from the fuzz input and holds the table to the tick-level reference.
func FuzzSlackTable(f *testing.F) {
	f.Add([]byte{1, 4, 1, 1, 0, 9, 2, 5, 1})
	f.Add([]byte{2, 4, 1, 3, 2, 5, 0, 0, 0, 11, 2, 3, 5})
	f.Add([]byte{3, 2, 2, 0, 1, 5, 1, 2, 3, 7, 3, 0, 6, 23, 4, 9, 22})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%4
		data = data[1:]
		if len(data) < 4*n {
			return
		}
		tasks := make([]task.Periodic, n)
		for i := range tasks {
			b := data[4*i : 4*i+4]
			p := 1 + timebase.Macrotick(b[0])%24
			c := 1 + timebase.Macrotick(b[1])%p
			d := c + timebase.Macrotick(b[2])%(p-c+1)
			phi := timebase.Macrotick(b[3]) % p
			tasks[i] = task.Periodic{Name: fmt.Sprint("t", i), C: c, T: p, Phi: phi, D: d}
		}
		s, err := task.NewSet(tasks)
		if err != nil {
			return // overloaded
		}
		if h, err := s.Hyperperiod(); err != nil || h > 2000 {
			return // keep the tick-level reference cheap
		}
		if _, msg := checkAgainstBruteForce(s); msg != "" {
			t.Fatalf("%+v: %s", s.Tasks, msg)
		}
	})
}

// checkAgainstBruteForce builds the analysis of s and compares it with
// the tick-level reference: the verdict against bruteForceMisses, and,
// when schedulable, every deadline entry up to three windows.  It reports
// whether s is schedulable and describes the first mismatch ("" if none).
func checkAgainstBruteForce(s *task.Set) (schedulable bool, mismatch string) {
	h, err := s.Hyperperiod()
	if err != nil {
		return false, fmt.Sprintf("Hyperperiod: %v", err)
	}
	window := s.MaxOffset() + 2*h
	a, err := NewAnalysis(s)
	if missed := bruteForceMisses(s, window); missed != errors.Is(err, ErrUnschedulable) {
		return false, fmt.Sprintf("NewAnalysis = %v, brute-force miss %v", err, missed)
	}
	if err != nil {
		return false, ""
	}
	return true, compareWithBruteForce(a, 3*window)
}

// compareWithBruteForce checks IdleBefore at every deadline of every level
// up to horizon against bruteForceIdle and returns the first mismatch, or
// "".
func compareWithBruteForce(a *Analysis, horizon timebase.Macrotick) string {
	s := a.Set()
	ref := bruteForceIdle(s, horizon)
	for level := 1; level <= len(s.Tasks); level++ {
		tk := s.Tasks[level-1]
		for k := int64(1); tk.AbsDeadline(k) <= horizon; k++ {
			got, err := a.IdleBefore(level, k)
			if err != nil {
				return fmt.Sprintf("IdleBefore(%d, %d): %v", level, k, err)
			}
			if want := ref[level-1][tk.AbsDeadline(k)]; got != want {
				return fmt.Sprintf("IdleBefore(%d, %d) = %d at deadline %d, brute force %d",
					level, k, got, tk.AbsDeadline(k), want)
			}
		}
	}
	return ""
}

// bruteForceMisses simulates the FP schedule tick by tick and reports
// whether a job with a deadline before the window still has work at its
// deadline.
func bruteForceMisses(s *task.Set, window timebase.Macrotick) bool {
	n := len(s.Tasks)
	remaining := make([]timebase.Macrotick, n)
	for tm := timebase.Macrotick(0); tm < window; tm++ {
		for i, tk := range s.Tasks {
			// Deadlines first: a job released at this tick is not due.
			if tm >= tk.Phi+tk.D && (tm-tk.Phi-tk.D)%tk.T == 0 && remaining[i] > 0 {
				return true
			}
		}
		for i, tk := range s.Tasks {
			if tm >= tk.Phi && (tm-tk.Phi)%tk.T == 0 {
				remaining[i] += tk.C
			}
		}
		for i := range remaining {
			if remaining[i] > 0 {
				remaining[i]--
				break
			}
		}
	}
	return false
}

// bruteForceIdle simulates the FP schedule tick by tick and returns, per
// 0-based level index, the cumulative level idle at each tick.
func bruteForceIdle(s *task.Set, window timebase.Macrotick) [][]timebase.Macrotick {
	n := len(s.Tasks)
	remaining := make([]timebase.Macrotick, n)
	nextRel := make([]timebase.Macrotick, n)
	for i, tk := range s.Tasks {
		nextRel[i] = tk.Phi
	}
	out := make([][]timebase.Macrotick, n)
	for i := range out {
		out[i] = make([]timebase.Macrotick, window+1)
	}
	var cum = make([]timebase.Macrotick, n)
	for tm := timebase.Macrotick(0); tm < window; tm++ {
		for i, tk := range s.Tasks {
			if nextRel[i] == tm {
				remaining[i] += tk.C
				nextRel[i] += tk.T
			}
		}
		run := -1
		for i := 0; i < n; i++ {
			if remaining[i] > 0 {
				run = i
				break
			}
		}
		for level := 1; level <= n; level++ {
			out[level-1][tm] = cum[level-1]
			if run == -1 || run >= level {
				cum[level-1]++
			}
		}
		if run >= 0 {
			remaining[run]--
		}
	}
	for level := 0; level < n; level++ {
		out[level][window] = cum[level]
	}
	return out
}

func TestSlackTable(t *testing.T) {
	a, err := NewAnalysis(twoTasks(t))
	if err != nil {
		t.Fatalf("NewAnalysis: %v", err)
	}
	// τ1 (C=2,T=5,D=5): deadlines 5,10,15,20 with A_1 = 3,6,9,12.
	tbl, err := a.SlackTable(1, 20)
	if err != nil {
		t.Fatalf("SlackTable: %v", err)
	}
	want := []TableEntry{{5, 3}, {10, 6}, {15, 9}, {20, 12}}
	if len(tbl) != len(want) {
		t.Fatalf("table = %+v, want %+v", tbl, want)
	}
	for i := range want {
		if tbl[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, tbl[i], want[i])
		}
	}
	// Availability is non-decreasing in the deadline.
	tbl2, err := a.SlackTable(2, 100)
	if err != nil {
		t.Fatalf("SlackTable: %v", err)
	}
	for i := 1; i < len(tbl2); i++ {
		if tbl2[i].Available < tbl2[i-1].Available {
			t.Fatalf("availability decreased at %+v", tbl2[i])
		}
	}
	if _, err := a.SlackTable(0, 10); !errors.Is(err, ErrBadLevel) {
		t.Errorf("SlackTable(0) = %v, want ErrBadLevel", err)
	}
}
