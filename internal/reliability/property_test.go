package reliability

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// randomMsgs derives a small message set from fuzzer-style integers.
func randomMsgs(r *rand.Rand, n int) []Message {
	msgs := make([]Message, n)
	for i := range msgs {
		msgs[i] = Message{
			Name:   "m",
			Bits:   100 + r.Intn(2000),
			Period: time.Duration(1+r.Intn(50)) * time.Millisecond,
		}
	}
	return msgs
}

// Property: SuccessProbability is monotone non-decreasing in every k_z —
// adding a retransmission anywhere can only help.
func TestSuccessProbabilityMonotoneInEachK(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		msgs := randomMsgs(r, 1+r.Intn(6))
		ber := math.Pow(10, -(2 + 6*r.Float64())) // 1e-8 .. 1e-2
		retx := make([]int, len(msgs))
		for i := range retx {
			retx[i] = r.Intn(4)
		}
		base, err := SuccessProbability(msgs, ber, time.Second, retx)
		if err != nil {
			return false
		}
		for i := range retx {
			bumped := append([]int(nil), retx...)
			bumped[i]++
			p, err := SuccessProbability(msgs, ber, time.Second, bumped)
			if err != nil {
				return false
			}
			if p < base {
				t.Logf("k%d: %d->%d dropped P %g -> %g (ber %g)", i, retx[i], bumped[i], base, p, ber)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: PlanDifferentiated never misses a feasible goal.  A goal is
// feasible iff the saturated vector (k_z = maxRetx everywhere) reaches it;
// the planner must then succeed with Success >= goal, and must report
// ErrUnreachable exactly when even saturation falls short.
func TestPlanDifferentiatedNeverMissesFeasibleGoal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		msgs := randomMsgs(r, 1+r.Intn(6))
		ber := math.Pow(10, -(1 + 7*r.Float64())) // 1e-8 .. 1e-1
		goal := 0.5 + 0.4999*r.Float64()
		maxRetx := 1 + r.Intn(6)

		saturated := make([]int, len(msgs))
		for i := range saturated {
			saturated[i] = maxRetx
		}
		best, err := SuccessProbability(msgs, ber, time.Second, saturated)
		if err != nil {
			return false
		}
		plan, err := PlanDifferentiated(msgs, ber, time.Second, goal, maxRetx)
		if best >= goal {
			if err != nil {
				t.Logf("feasible goal %g (best %g) reported unreachable: %v", goal, best, err)
				return false
			}
			if plan.Success < goal {
				t.Logf("plan success %g below goal %g", plan.Success, goal)
				return false
			}
			for _, k := range plan.Retransmissions {
				if k < 0 || k > maxRetx {
					return false
				}
			}
			return true
		}
		if !errors.Is(err, ErrUnreachable) {
			t.Logf("infeasible goal %g (best %g) accepted: err=%v", goal, best, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Replan warm-started from any previous vector lands on a plan
// meeting the goal whenever one exists, regardless of the starting point.
func TestReplanFromAnyWarmStart(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		msgs := randomMsgs(r, 1+r.Intn(5))
		ber := math.Pow(10, -(2 + 5*r.Float64()))
		const goal, maxRetx = 0.999, 8
		prev := make([]int, len(msgs))
		for i := range prev {
			prev[i] = r.Intn(2*maxRetx) - maxRetx/2 // some out of range on purpose
		}
		plan, err := Replan(msgs, ber, time.Second, goal, maxRetx, prev)
		if errors.Is(err, ErrUnreachable) {
			return true // separately covered by the feasibility property
		}
		if err != nil {
			return false
		}
		return plan.Success >= goal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Replan's prune pass must strip an over-provisioned warm start back down:
// starting from saturation at a benign BER ends at the cold-start plan.
func TestReplanPrunesOverProvisionedPlan(t *testing.T) {
	msgs := []Message{
		{Name: "a", Bits: 400, Period: 2 * time.Millisecond},
		{Name: "b", Bits: 1600, Period: 10 * time.Millisecond},
	}
	const goal, maxRetx = 0.999, 8
	cold, err := PlanDifferentiated(msgs, 1e-7, time.Second, goal, maxRetx)
	if err != nil {
		t.Fatalf("PlanDifferentiated: %v", err)
	}
	warm, err := Replan(msgs, 1e-7, time.Second, goal, maxRetx, []int{maxRetx, maxRetx})
	if err != nil {
		t.Fatalf("Replan: %v", err)
	}
	if warm.Total() > cold.Total() {
		t.Errorf("pruned plan %v keeps more copies than cold start %v",
			warm.Retransmissions, cold.Retransmissions)
	}
	if warm.Success < goal {
		t.Errorf("pruned plan success %g below goal", warm.Success)
	}
}

func TestReplanDualReducesToSymmetric(t *testing.T) {
	msgs := []Message{
		{Name: "a", Bits: 500, Period: 2 * time.Millisecond},
		{Name: "b", Bits: 1200, Period: 5 * time.Millisecond},
		{Name: "c", Bits: 300, Period: time.Millisecond},
	}
	const ber, goal = 2e-4, 0.999
	sym, err := Replan(msgs, ber, time.Second, goal, 0, nil)
	if err != nil {
		t.Fatalf("Replan: %v", err)
	}
	dual, err := ReplanDual(msgs, ber, ber, time.Second, goal, 0, nil)
	if err != nil {
		t.Fatalf("ReplanDual: %v", err)
	}
	for i := range sym.Retransmissions {
		if sym.Retransmissions[i] != dual.Retransmissions[i] {
			t.Fatalf("equal-BER ReplanDual differs from Replan: %v vs %v",
				dual.Retransmissions, sym.Retransmissions)
		}
	}
	if sym.Success != dual.Success {
		t.Errorf("success differs: %g vs %g", dual.Success, sym.Success)
	}
}

// When copies ride a healthy channel, far fewer of them buy the same goal:
// the dual plan must be no larger than the symmetric one, and both meet it.
func TestReplanDualHealthyCopiesNeedFewer(t *testing.T) {
	msgs := []Message{
		{Name: "a", Bits: 500, Period: 2 * time.Millisecond},
		{Name: "b", Bits: 500, Period: 2 * time.Millisecond},
		{Name: "c", Bits: 1500, Period: 10 * time.Millisecond},
	}
	const primary, healthy, goal = 2e-4, 1e-7, 0.999
	sym, err := ReplanDual(msgs, primary, primary, time.Second, goal, 0, nil)
	if err != nil {
		t.Fatalf("symmetric: %v", err)
	}
	dual, err := ReplanDual(msgs, primary, healthy, time.Second, goal, 0, nil)
	if err != nil {
		t.Fatalf("dual: %v", err)
	}
	// At p(primary) ≈ 0.1-0.26 the symmetric model needs k ≈ 6-10 per
	// message; with near-error-free copies two suffice for any of them.
	if dual.Total() > sym.Total()/2 {
		t.Errorf("healthy-copy plan %v not far smaller than symmetric %v",
			dual.Retransmissions, sym.Retransmissions)
	}
	if dual.Success < goal {
		t.Errorf("dual success %g below goal", dual.Success)
	}
}

// The incremental greedy loops of ReplanDual must return exactly what a
// full rescan of every message per step returns: the same vector,
// bit-equal Success and TotalPerUnit, and the same error.
func TestReplanDualMatchesFullRescan(t *testing.T) {
	r := rand.New(rand.NewSource(20260601))
	randBER := func() float64 {
		if r.Intn(10) == 0 {
			return 0
		}
		return 5e-3 * math.Pow(10, -6*r.Float64())
	}
	feasible := 0
	for trial := 0; trial < 3000; trial++ {
		msgs := randomMsgs(r, 1+r.Intn(40))
		primary, retx := randBER(), randBER()
		if r.Intn(4) == 0 {
			retx = primary
		}
		goal := 1 - math.Pow(10, -(1+8*r.Float64())) // 0.9 .. 1−1e-9
		maxRetx := r.Intn(17)
		var prev []int
		switch r.Intn(3) {
		case 1:
			prev = make([]int, len(msgs))
			for i := range prev {
				prev[i] = r.Intn(24) - 3 // out of range on both sides
			}
		case 2:
			prev = make([]int, len(msgs)+1) // wrong length: ignored
		}
		got, gotErr := ReplanDual(msgs, primary, retx, time.Second, goal, maxRetx, prev)
		want, wantErr := replanDualFullRescan(msgs, primary, retx, time.Second, goal, maxRetx, prev)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("trial %d: error %v, full rescan %v", trial, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		feasible++
		if !slices.Equal(got.Retransmissions, want.Retransmissions) ||
			math.Float64bits(got.Success) != math.Float64bits(want.Success) ||
			math.Float64bits(got.TotalPerUnit) != math.Float64bits(want.TotalPerUnit) {
			t.Fatalf("trial %d: plan %+v, full rescan %+v", trial, got, want)
		}
	}
	if feasible < 500 {
		t.Fatalf("only %d feasible plans; the generator no longer covers the planner", feasible)
	}
}

// replanDualFullRescan is the reference greedy planner: every step
// re-evaluates every message's gain or loss.
func replanDualFullRescan(msgs []Message, primaryBER, retxBER float64, u time.Duration, goal float64, maxRetx int, prev []int) (Plan, error) {
	if err := checkPlanArgs(msgs, u, goal); err != nil {
		return Plan{}, err
	}
	if maxRetx <= 0 {
		maxRetx = DefaultMaxRetransmissions
	}
	n := len(msgs)
	p0 := make([]float64, n)
	pr := make([]float64, n)
	instances := make([]float64, n)
	for i, m := range msgs {
		if m.Period <= 0 {
			return Plan{}, fmt.Errorf("%w: message %q period %v", ErrBadPeriod, m.Name, m.Period)
		}
		p, err := FailureProb(m, primaryBER)
		if err != nil {
			return Plan{}, fmt.Errorf("message %q: %w", m.Name, err)
		}
		p0[i] = p
		if p, err = FailureProb(m, retxBER); err != nil {
			return Plan{}, fmt.Errorf("message %q: %w", m.Name, err)
		}
		pr[i] = p
		instances[i] = float64(u) / float64(m.Period)
	}
	retx := make([]int, n)
	if len(prev) == n {
		for i, k := range prev {
			retx[i] = min(max(k, 0), maxRetx)
		}
	}
	contrib := make([]float64, n)
	sumContrib := func() float64 {
		logP := 0.0
		for i := range msgs {
			logP += contrib[i]
		}
		return logP
	}
	for i := range msgs {
		contrib[i] = logSuccessDual(p0[i], pr[i], retx[i], instances[i])
	}
	logP := sumContrib()
	logGoal := math.Log(goal)
	for logP < logGoal {
		best, bestGain := -1, 0.0
		for i := range msgs {
			if retx[i] >= maxRetx || p0[i] <= 0 {
				continue
			}
			gain := logSuccessDual(p0[i], pr[i], retx[i]+1, instances[i]) - contrib[i]
			if math.IsNaN(gain) || gain <= 0 {
				continue
			}
			if best == -1 || gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best == -1 {
			return Plan{}, fmt.Errorf("%w: differentiated, cap %d", ErrUnreachable, maxRetx)
		}
		retx[best]++
		contrib[best] = logSuccessDual(p0[best], pr[best], retx[best], instances[best])
		logP = sumContrib()
	}
	for {
		best, bestLoss := -1, 0.0
		var bestContrib float64
		for i := range msgs {
			if retx[i] <= 0 {
				continue
			}
			lower := logSuccessDual(p0[i], pr[i], retx[i]-1, instances[i])
			loss := contrib[i] - lower
			if logP-loss < logGoal {
				continue
			}
			if best == -1 || loss < bestLoss {
				best, bestLoss, bestContrib = i, loss, lower
			}
		}
		if best == -1 {
			break
		}
		retx[best]--
		contrib[best] = bestContrib
		logP -= bestLoss
	}
	return finishPlan(msgs, u, goal, retx, math.Exp(logP)), nil
}
