package reliability

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func msgs3() []Message {
	return []Message{
		{Name: "big-fast", Bits: 1574, Period: time.Millisecond},
		{Name: "mid", Bits: 875, Period: 8 * time.Millisecond},
		{Name: "small-slow", Bits: 256, Period: 32 * time.Millisecond},
	}
}

func TestSuccessProbabilityNoFaults(t *testing.T) {
	p, err := SuccessProbability(msgs3(), 0, time.Second, nil)
	if err != nil {
		t.Fatalf("SuccessProbability: %v", err)
	}
	if p != 1 {
		t.Errorf("P = %g with BER 0, want 1", p)
	}
}

func TestSuccessProbabilityMatchesTheorem1(t *testing.T) {
	// Hand-compute the theorem for a single message.
	m := Message{Name: "m", Bits: 1000, Period: 10 * time.Millisecond}
	ber := 1e-5
	pz := 1 - math.Pow(1-ber, 1000)
	u := time.Second
	instances := float64(u) / float64(m.Period) // 100
	for _, k := range []int{0, 1, 2} {
		want := math.Pow(1-math.Pow(pz, float64(k+1)), instances)
		got, err := SuccessProbability([]Message{m}, ber, u, []int{k})
		if err != nil {
			t.Fatalf("SuccessProbability(k=%d): %v", k, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("k=%d: P = %.12g, want %.12g", k, got, want)
		}
	}
}

func TestSuccessProbabilityMultiplicative(t *testing.T) {
	ms := msgs3()
	ber := 1e-6
	u := time.Second
	all, err := SuccessProbability(ms, ber, u, nil)
	if err != nil {
		t.Fatalf("SuccessProbability: %v", err)
	}
	product := 1.0
	for _, m := range ms {
		p, err := SuccessProbability([]Message{m}, ber, u, nil)
		if err != nil {
			t.Fatalf("single: %v", err)
		}
		product *= p
	}
	if math.Abs(all-product) > 1e-12 {
		t.Errorf("joint P = %.15g, product of singles = %.15g", all, product)
	}
}

func TestSuccessProbabilityErrors(t *testing.T) {
	if _, err := SuccessProbability(msgs3(), 1e-7, 0, nil); !errors.Is(err, ErrBadUnit) {
		t.Errorf("zero unit: %v, want ErrBadUnit", err)
	}
	if _, err := SuccessProbability(msgs3(), 1e-7, time.Second, []int{1}); err == nil {
		t.Error("mismatched retx length accepted")
	}
	bad := []Message{{Name: "x", Bits: 100, Period: 0}}
	if _, err := SuccessProbability(bad, 1e-7, time.Second, nil); !errors.Is(err, ErrBadPeriod) {
		t.Errorf("zero period: %v, want ErrBadPeriod", err)
	}
	bad = []Message{{Name: "x", Bits: 0, Period: time.Millisecond}}
	if _, err := SuccessProbability(bad, 1e-7, time.Second, nil); err == nil {
		t.Error("zero bits accepted")
	}
}

func TestRetransmissionsImproveSuccess(t *testing.T) {
	ms := msgs3()
	ber := 1e-4
	u := time.Second
	p0, _ := SuccessProbability(ms, ber, u, []int{0, 0, 0})
	p1, _ := SuccessProbability(ms, ber, u, []int{1, 1, 1})
	p2, _ := SuccessProbability(ms, ber, u, []int{2, 2, 2})
	if !(p0 < p1 && p1 < p2) {
		t.Errorf("P(k=0)=%g, P(k=1)=%g, P(k=2)=%g: not increasing", p0, p1, p2)
	}
}

func TestPlanUniformMeetsGoal(t *testing.T) {
	ms := msgs3()
	goal := 0.9999
	plan, err := PlanUniform(ms, 1e-5, time.Second, goal, 0)
	if err != nil {
		t.Fatalf("PlanUniform: %v", err)
	}
	if plan.Success < goal {
		t.Errorf("Success = %g < goal %g", plan.Success, goal)
	}
	// Uniform: all entries equal.
	for _, k := range plan.Retransmissions[1:] {
		if k != plan.Retransmissions[0] {
			t.Errorf("non-uniform plan: %v", plan.Retransmissions)
		}
	}
	// Minimality: one fewer must miss the goal (when k > 0).
	if k := plan.Retransmissions[0]; k > 0 {
		fewer := make([]int, len(ms))
		for i := range fewer {
			fewer[i] = k - 1
		}
		p, _ := SuccessProbability(ms, 1e-5, time.Second, fewer)
		if p >= goal {
			t.Errorf("uniform k=%d not minimal: k-1 already achieves %g", k, p)
		}
	}
}

func TestPlanDifferentiatedMeetsGoalWithFewerRetx(t *testing.T) {
	ms := msgs3()
	goal := 0.9999
	ber := 1e-5
	uni, err := PlanUniform(ms, ber, time.Second, goal, 0)
	if err != nil {
		t.Fatalf("PlanUniform: %v", err)
	}
	diff, err := PlanDifferentiated(ms, ber, time.Second, goal, 0)
	if err != nil {
		t.Fatalf("PlanDifferentiated: %v", err)
	}
	if diff.Success < goal {
		t.Errorf("differentiated Success = %g < goal %g", diff.Success, goal)
	}
	if diff.Total() > uni.Total() {
		t.Errorf("differentiated plan configures %d retransmissions, uniform %d — differentiated should not configure more",
			diff.Total(), uni.Total())
	}
	// Verify the plan independently.
	p, err := SuccessProbability(ms, ber, time.Second, diff.Retransmissions)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if math.Abs(p-diff.Success) > 1e-9 {
		t.Errorf("plan Success %g disagrees with independent evaluation %g", diff.Success, p)
	}
}

func TestPlanDifferentiatedFavorsFailureProneMessages(t *testing.T) {
	// A large fast message fails far more often than a tiny slow one; the
	// differentiated planner must give it at least as many retransmissions.
	ms := []Message{
		{Name: "fragile", Bits: 2000, Period: time.Millisecond},
		{Name: "robust", Bits: 64, Period: 100 * time.Millisecond},
	}
	plan, err := PlanDifferentiated(ms, 1e-5, time.Second, 0.99999, 0)
	if err != nil {
		t.Fatalf("PlanDifferentiated: %v", err)
	}
	if plan.Retransmissions[0] < plan.Retransmissions[1] {
		t.Errorf("fragile message got %d retx, robust got %d",
			plan.Retransmissions[0], plan.Retransmissions[1])
	}
	if plan.Retransmissions[0] == 0 {
		t.Error("fragile message got no retransmissions at a tight goal")
	}
}

func TestPlanZeroBERNeedsNoRetx(t *testing.T) {
	plan, err := PlanDifferentiated(msgs3(), 0, time.Second, 0.999999, 0)
	if err != nil {
		t.Fatalf("PlanDifferentiated: %v", err)
	}
	if plan.Total() != 0 {
		t.Errorf("zero-BER plan has %d retransmissions, want 0", plan.Total())
	}
	if plan.Success != 1 {
		t.Errorf("zero-BER Success = %g, want 1", plan.Success)
	}
}

func TestPlanArgErrors(t *testing.T) {
	ms := msgs3()
	if _, err := PlanUniform(nil, 1e-7, time.Second, 0.99, 0); !errors.Is(err, ErrNoMessages) {
		t.Errorf("empty messages: %v", err)
	}
	if _, err := PlanUniform(ms, 1e-7, 0, 0.99, 0); !errors.Is(err, ErrBadUnit) {
		t.Errorf("zero unit: %v", err)
	}
	for _, goal := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if _, err := PlanDifferentiated(ms, 1e-7, time.Second, goal, 0); !errors.Is(err, ErrBadGoal) {
			t.Errorf("goal %g: %v, want ErrBadGoal", goal, err)
		}
	}
}

func TestPlanUnreachable(t *testing.T) {
	// Extremely lossy channel and a tiny cap: even k=1 can't reach 0.99.
	ms := []Message{{Name: "doomed", Bits: 2000, Period: time.Millisecond}}
	if _, err := PlanUniform(ms, 0.01, time.Second, 0.999999, 1); !errors.Is(err, ErrUnreachable) {
		t.Errorf("PlanUniform: %v, want ErrUnreachable", err)
	}
	if _, err := PlanDifferentiated(ms, 0.01, time.Second, 0.999999, 1); !errors.Is(err, ErrUnreachable) {
		t.Errorf("PlanDifferentiated: %v, want ErrUnreachable", err)
	}
}

func TestPlanTotal(t *testing.T) {
	p := Plan{Retransmissions: []int{2, 0, 3}}
	if got := p.Total(); got != 5 {
		t.Errorf("Total() = %d, want 5", got)
	}
}

// Property: for random small workloads, the differentiated plan always meets
// the goal and never configures more total retransmissions (Σ k_z) than the
// uniform plan — the greedy adds increments where they help most, so it
// reaches the goal in the minimum number of increments.
func TestDifferentiatedDominatesUniformProperty(t *testing.T) {
	f := func(sizes []uint16, periodsMs []uint8) bool {
		if len(sizes) == 0 || len(sizes) > 8 {
			return true
		}
		ms := make([]Message, len(sizes))
		for i, s := range sizes {
			pMs := 1
			if len(periodsMs) > 0 {
				pMs = int(periodsMs[i%len(periodsMs)]%50) + 1
			}
			ms[i] = Message{
				Name:   "m",
				Bits:   int(s%2000) + 1,
				Period: time.Duration(pMs) * time.Millisecond,
			}
		}
		const (
			ber  = 1e-5
			goal = 0.9999
		)
		uni, errU := PlanUniform(ms, ber, time.Second, goal, 32)
		diff, errD := PlanDifferentiated(ms, ber, time.Second, goal, 32)
		if errU != nil || errD != nil {
			return errors.Is(errU, ErrUnreachable) && errors.Is(errD, ErrUnreachable)
		}
		return diff.Success >= goal && diff.Total() <= uni.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSILGoals(t *testing.T) {
	for _, tt := range []struct {
		sil  SIL
		want float64
	}{
		{SIL1, 1e-5}, {SIL2, 1e-6}, {SIL3, 1e-7}, {SIL4, 1e-8},
	} {
		if got := tt.sil.MaxFailuresPerHour(); got != tt.want {
			t.Errorf("%v.MaxFailuresPerHour() = %g, want %g", tt.sil, got, tt.want)
		}
	}
	// One-hour goal equals 1 - PFH.
	if got := SIL3.Goal(time.Hour); math.Abs(got-(1-1e-7)) > 1e-15 {
		t.Errorf("SIL3.Goal(1h) = %v", got)
	}
	// Stricter levels yield stricter (larger) goals.
	if !(SIL4.Goal(time.Hour) > SIL3.Goal(time.Hour)) {
		t.Error("SIL4 goal not stricter than SIL3")
	}
	if got := SIL2.String(); got != "SIL2" {
		t.Errorf("String() = %q", got)
	}
	if got := SIL(9).String(); got != "SIL(9)" {
		t.Errorf("String() = %q", got)
	}
	if got := SIL(9).MaxFailuresPerHour(); got != 1 {
		t.Errorf("invalid SIL MaxFailuresPerHour = %g, want 1", got)
	}
}
