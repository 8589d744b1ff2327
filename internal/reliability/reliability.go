// Package reliability implements the paper's probabilistic fault analysis
// (Section III-E) and the differentiated retransmission planner that is one
// half of the CoEfficient contribution.
//
// For a message M_z of W_z bits transmitted at bit error rate BER, the
// per-transmission failure probability is p_z = 1 − (1−BER)^{W_z}.  With k_z
// retransmissions, one instance of M_z is lost only if all k_z+1
// transmissions fail, so by the paper's Theorem 1 the probability that every
// instance of every message over a time unit u meets its deadline is
//
//	P = ∏_z (1 − p_z^{k_z+1})^{u/T_z}.
//
// Given a reliability goal ρ (e.g. from an IEC 61508 SIL level, ρ = 1 − γ),
// the planner chooses the retransmission vector k.  The differentiated
// planner adds retransmissions greedily where they raise log P the most,
// producing far fewer total retransmissions than a uniform k — this is what
// lets CoEfficient fit the retransmissions into stolen slack instead of
// retransmitting everything best-effort.
package reliability

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/flexray-go/coefficient/internal/fault"
)

// Errors returned by the planner.
var (
	// ErrBadGoal is returned for reliability goals outside (0, 1).
	ErrBadGoal = errors.New("reliability: goal must be in (0, 1)")
	// ErrBadUnit is returned for non-positive time units.
	ErrBadUnit = errors.New("reliability: time unit must be positive")
	// ErrBadPeriod is returned for messages with non-positive periods.
	ErrBadPeriod = errors.New("reliability: message period must be positive")
	// ErrUnreachable is returned when the goal cannot be met within the
	// configured retransmission cap.
	ErrUnreachable = errors.New("reliability: goal unreachable within retransmission cap")
	// ErrNoMessages is returned when planning over an empty message list.
	ErrNoMessages = errors.New("reliability: no messages")
)

// Message describes one message for the reliability analysis.
type Message struct {
	// Name labels the message in plans and reports.
	Name string
	// Bits is the frame size W_z in bits (including protocol overhead if
	// the caller wants faults over the whole wire frame).
	Bits int
	// Period is T_z, the message period.
	Period time.Duration
}

// Plan is the result of retransmission planning.
type Plan struct {
	// Retransmissions[i] is k_z for Messages[i] of the planning call.
	Retransmissions []int
	// Success is the achieved probability P from Theorem 1.
	Success float64
	// Goal is the requested ρ.
	Goal float64
	// TotalPerUnit is the expected number of scheduled retransmission
	// slots per time unit u: Σ k_z · u/T_z.
	TotalPerUnit float64
}

// Total returns the summed retransmission count Σ k_z.
func (p Plan) Total() int {
	total := 0
	for _, k := range p.Retransmissions {
		total += k
	}
	return total
}

// DefaultMaxRetransmissions caps per-message retransmissions during planning.
const DefaultMaxRetransmissions = 16

// FailureProb returns p_z for the message at the given BER.
func FailureProb(m Message, ber float64) (float64, error) {
	return fault.FrameFailureProb(ber, m.Bits)
}

// logSuccessOne returns (u/T_z) · log(1 − p_z^{k_z+1}), the message's
// contribution to log P.
func logSuccessOne(p float64, k int, instances float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(-1)
	}
	// p^(k+1) via exp/log keeps precision for tiny p.
	loss := math.Exp(float64(k+1) * math.Log(p))
	if loss >= 1 {
		return math.Inf(-1)
	}
	return instances * math.Log1p(-loss)
}

// logSuccessDual returns (u/T_z) · log(1 − p0 · pr^k), the message's
// contribution to log P when the first transmission fails with probability
// p0 and each of the k retransmission copies with probability pr.  With
// pr == p0 it equals logSuccessOne(p0, k, instances).
func logSuccessDual(p0, pr float64, k int, instances float64) float64 {
	if p0 <= 0 {
		return 0
	}
	var loss float64
	switch {
	case k == 0:
		loss = p0
	case pr <= 0:
		return 0
	case pr >= 1:
		loss = p0
	default:
		loss = math.Exp(math.Log(p0) + float64(k)*math.Log(pr))
	}
	if loss >= 1 {
		return math.Inf(-1)
	}
	return instances * math.Log1p(-loss)
}

// SuccessProbability evaluates Theorem 1: the probability that all instances
// of all messages over time unit u are delivered within k_z+1 transmissions.
// retx may be nil (no retransmissions) or must have one entry per message.
func SuccessProbability(msgs []Message, ber float64, u time.Duration, retx []int) (float64, error) {
	if u <= 0 {
		return 0, fmt.Errorf("%w: %v", ErrBadUnit, u)
	}
	if retx != nil && len(retx) != len(msgs) {
		return 0, fmt.Errorf("reliability: %d retransmission entries for %d messages",
			len(retx), len(msgs))
	}
	logP := 0.0
	for i, m := range msgs {
		if m.Period <= 0 {
			return 0, fmt.Errorf("%w: message %q period %v", ErrBadPeriod, m.Name, m.Period)
		}
		p, err := FailureProb(m, ber)
		if err != nil {
			return 0, fmt.Errorf("message %q: %w", m.Name, err)
		}
		k := 0
		if retx != nil {
			k = retx[i]
		}
		instances := float64(u) / float64(m.Period)
		logP += logSuccessOne(p, k, instances)
	}
	return math.Exp(logP), nil
}

// PlanUniform finds the smallest uniform retransmission count k (the same
// for every message) such that the Theorem 1 probability meets goal.
func PlanUniform(msgs []Message, ber float64, u time.Duration, goal float64, maxRetx int) (Plan, error) {
	if err := checkPlanArgs(msgs, u, goal); err != nil {
		return Plan{}, err
	}
	if maxRetx <= 0 {
		maxRetx = DefaultMaxRetransmissions
	}
	for k := 0; k <= maxRetx; k++ {
		retx := make([]int, len(msgs))
		for i := range retx {
			retx[i] = k
		}
		p, err := SuccessProbability(msgs, ber, u, retx)
		if err != nil {
			return Plan{}, err
		}
		if p >= goal {
			return finishPlan(msgs, u, goal, retx, p), nil
		}
	}
	return Plan{}, fmt.Errorf("%w: uniform k up to %d", ErrUnreachable, maxRetx)
}

// PlanDifferentiated finds a per-message retransmission vector meeting goal
// with greedily few total retransmissions: each step adds one retransmission
// to the message whose increment raises log P the most.
//
// The greedy choice is optimal here because each message's contribution
// log(1−p^{k+1}) is concave in k (diminishing returns), so the marginal
// gains of a message form a decreasing sequence and picking the globally
// largest marginal gain at each step dominates any other order.
func PlanDifferentiated(msgs []Message, ber float64, u time.Duration, goal float64, maxRetx int) (Plan, error) {
	return Replan(msgs, ber, u, goal, maxRetx, nil)
}

// Replan is the incremental entry point for the runtime re-planner: it
// recomputes the retransmission vector at a new BER, warm-started from a
// previous vector.  Starting above the goal it removes the retransmission
// whose loss costs the least log P while the goal still holds (pruning an
// over-provisioned plan after the channel heals); starting below it adds
// greedily exactly like PlanDifferentiated.  prev may be nil (cold start
// from zero) and is clamped to [0, maxRetx]; a prev of the wrong length is
// ignored.
func Replan(msgs []Message, ber float64, u time.Duration, goal float64, maxRetx int, prev []int) (Plan, error) {
	return ReplanDual(msgs, ber, ber, u, goal, maxRetx, prev)
}

// ReplanDual generalizes Replan to asymmetric channels: the first
// transmission of a message fails with the probability induced by
// primaryBER, every retransmission copy with the probability induced by
// retxBER, so an instance is lost with probability p0 · pr^k and Theorem 1
// becomes P = ∏_z (1 − p0_z · pr_z^{k_z})^{u/T_z}.  This models the
// dual-channel degradation case: when the primary channel's error rate is
// elevated, the adaptive scheduler routes copies onto the healthy channel,
// where a single copy buys far more reliability than the symmetric model
// would predict.  With retxBER == primaryBER it reduces exactly to the
// paper's model.
func ReplanDual(msgs []Message, primaryBER, retxBER float64, u time.Duration, goal float64, maxRetx int, prev []int) (Plan, error) {
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
		if retxBER == primaryBER {
			pr[i] = p
		} else {
			p, err = FailureProb(m, retxBER)
			if err != nil {
				return Plan{}, fmt.Errorf("message %q: %w", m.Name, err)
			}
			pr[i] = p
		}
		instances[i] = float64(u) / float64(m.Period)
	}

	retx := make([]int, n)
	if len(prev) == n {
		for i, k := range prev {
			switch {
			case k < 0:
				retx[i] = 0
			case k > maxRetx:
				retx[i] = maxRetx
			default:
				retx[i] = k
			}
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

	// Each step changes one message's k, and no other message's
	// contribution moves, so the loops below keep every message's next
	// gain (add) or removal loss (prune) and recompute only the chosen
	// message's: the floats, comparisons and lowest-index tie-breaking are
	// those of a full rescan per step.
	//
	// Add greedily until the goal holds.  Contributions can be -Inf (a
	// message certain to be lost at its current k), so gains are screened
	// for NaN (-Inf minus -Inf: more copies don't help that message either)
	// and the chosen contribution is recomputed rather than accumulated.
	gain := make([]float64, n)
	addGain := func(i int) float64 {
		if retx[i] >= maxRetx || p0[i] <= 0 {
			return math.NaN()
		}
		return logSuccessDual(p0[i], pr[i], retx[i]+1, instances[i]) - contrib[i]
	}
	if logP < logGoal {
		for i := range msgs {
			gain[i] = addGain(i)
		}
	}
	for logP < logGoal {
		best, bestGain := -1, 0.0
		for i, g := range gain {
			if math.IsNaN(g) || g <= 0 {
				continue
			}
			if best == -1 || g > bestGain {
				best, bestGain = i, g
			}
		}
		if best == -1 {
			return Plan{}, fmt.Errorf("%w: differentiated, cap %d", ErrUnreachable, maxRetx)
		}
		retx[best]++
		contrib[best] = logSuccessDual(p0[best], pr[best], retx[best], instances[best])
		gain[best] = addGain(best)
		logP = sumContrib()
	}

	// Prune: drop the retransmission whose removal loses the least log P
	// for as long as the goal still holds afterwards.  lower[i] is the
	// contribution at retx[i]−1 and loss[i] what dropping to it costs.
	lower, loss := make([]float64, n), make([]float64, n)
	setLoss := func(i int) {
		if retx[i] > 0 {
			lower[i] = logSuccessDual(p0[i], pr[i], retx[i]-1, instances[i])
			loss[i] = contrib[i] - lower[i]
		}
	}
	for i := range msgs {
		setLoss(i)
	}
	for {
		best := -1
		for i := range msgs {
			if retx[i] <= 0 || logP-loss[i] < logGoal {
				continue
			}
			if best == -1 || loss[i] < loss[best] {
				best = i
			}
		}
		if best == -1 {
			break
		}
		retx[best]--
		contrib[best] = lower[best]
		logP -= loss[best]
		setLoss(best)
	}
	return finishPlan(msgs, u, goal, retx, math.Exp(logP)), nil
}

func checkPlanArgs(msgs []Message, u time.Duration, goal float64) error {
	if len(msgs) == 0 {
		return ErrNoMessages
	}
	if u <= 0 {
		return fmt.Errorf("%w: %v", ErrBadUnit, u)
	}
	if !(goal > 0 && goal < 1) { // the negated range test also rejects NaN
		return fmt.Errorf("%w: %g", ErrBadGoal, goal)
	}
	return nil
}

func finishPlan(msgs []Message, u time.Duration, goal float64, retx []int, p float64) Plan {
	plan := Plan{Retransmissions: retx, Success: p, Goal: goal}
	for i, m := range msgs {
		plan.TotalPerUnit += float64(retx[i]) * float64(u) / float64(m.Period)
	}
	return plan
}
