// Package startup simulates the FlexRay cluster startup (coldstart)
// protocol at communication-cycle granularity: before any of the paper's
// scheduling can happen, the cluster must establish a common schedule from
// silence.
//
// The protocol, abridged from the FlexRay specification:
//
//   - only coldstart-capable nodes may initiate communication.  A coldstart
//     node listens for a randomized listen-timeout; hearing nothing, it
//     transmits a collision avoidance symbol (CAS) and begins sending its
//     startup frame every cycle (collision resolution phase);
//   - if two coldstart nodes send a CAS in the same cycle, both detect the
//     collision, abort, and re-enter listening with fresh random timeouts;
//   - a second coldstart node integrates off the leader after observing a
//     consistent double-cycle of startup frames and starts transmitting its
//     own; the leader verifies it is no longer alone (consistency check);
//   - every other node integrates once it observes startup/sync frames from
//     at least two distinct nodes over two consecutive double-cycles.
//
// The simulation reports when each node reached normal-active operation and
// how many CAS collisions occurred on the way.
package startup

import (
	"errors"
	"fmt"

	"github.com/flexray-go/coefficient/internal/fault"
)

// Errors returned by Simulate.
var (
	// ErrNoColdstarters is returned when fewer than two live
	// coldstart-capable nodes exist: FlexRay cannot start a cluster with
	// fewer.
	ErrNoColdstarters = errors.New("startup: fewer than two live coldstart nodes")
	// ErrBadConfig is returned for invalid parameters.
	ErrBadConfig = errors.New("startup: invalid configuration")
	// ErrTimeout is returned when the cluster fails to reach normal
	// operation within the cycle budget.
	ErrTimeout = errors.New("startup: cluster did not start within the cycle budget")
)

// phase is a node's startup state.
type phase int

const (
	phaseListening phase = iota + 1
	phaseColdstartLeader
	phaseColdstartJoin
	phaseIntegrating
	phaseNormalActive
	phaseDead
)

// Node configures one cluster member for startup.
type Node struct {
	// Name labels the node.
	Name string
	// Coldstart marks coldstart-capable nodes (the specification requires
	// at least two, typically three).
	Coldstart bool
	// Dead marks a failed node that never transmits (fault injection).
	Dead bool
}

// Config parameterizes a startup simulation.
type Config struct {
	// Nodes is the cluster membership.
	Nodes []Node
	// MaxCycles bounds the simulation (0 → 1000).
	MaxCycles int
	// ListenRange is the randomized listen-timeout range in cycles
	// (0 → 8); randomization breaks CAS collision livelock.
	ListenRange int
	// Seed drives the randomized timeouts.
	Seed uint64
}

// Report summarizes a startup run.
type Report struct {
	// JoinCycle maps node names to the cycle they reached normal-active
	// operation; dead nodes are absent.
	JoinCycle map[string]int
	// StartupCycles is the cycle at which the whole (live) cluster was
	// up.
	StartupCycles int
	// CASCollisions counts coldstart collision/backoff events.
	CASCollisions int
	// Leader names the coldstart node whose schedule won.
	Leader string
}

// nodeState is the per-node simulation state.
type nodeState struct {
	cfg     Node
	phase   phase
	timer   int // cycles remaining in the current phase
	sending bool
}

// Simulate runs the coldstart protocol and returns the join timeline.
func Simulate(cfg Config) (Report, error) {
	if len(cfg.Nodes) == 0 {
		return Report{}, fmt.Errorf("%w: no nodes", ErrBadConfig)
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 1000
	}
	if cfg.ListenRange <= 0 {
		cfg.ListenRange = defaultListenRange
	}
	rng := fault.NewRNG(cfg.Seed ^ 0x57A27)

	liveColdstarters := 0
	states := make([]*nodeState, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		st := &nodeState{cfg: n, phase: phaseListening}
		if n.Dead {
			st.phase = phaseDead
		} else if n.Coldstart {
			liveColdstarters++
			st.timer = 2 + rng.Intn(cfg.ListenRange)
		} else {
			st.phase = phaseIntegrating
			st.timer = 2 // double-cycles of consistent observation needed
		}
		states[i] = st
	}
	if liveColdstarters < 2 {
		return Report{}, fmt.Errorf("%w: %d", ErrNoColdstarters, liveColdstarters)
	}

	rep := Report{JoinCycle: make(map[string]int)}
	for cycle := 0; cycle < cfg.MaxCycles; cycle++ {
		// Which coldstart nodes attempt a CAS this cycle?
		var casSenders []*nodeState
		for _, st := range states {
			if st.phase == phaseListening && st.cfg.Coldstart {
				// A listener that already hears startup traffic
				// integrates instead of coldstarting.
				if leaderSending(states) {
					st.phase = phaseColdstartJoin
					st.timer = 2
					continue
				}
				st.timer--
				if st.timer <= 0 {
					casSenders = append(casSenders, st)
				}
			}
		}
		switch {
		case len(casSenders) == 1:
			st := casSenders[0]
			st.phase = phaseColdstartLeader
			st.sending = true
			st.timer = 4 // collision-resolution cycles before others join
			if rep.Leader == "" {
				rep.Leader = st.cfg.Name
			}
		case len(casSenders) > 1:
			// CAS collision: everyone backs off with fresh timeouts.
			rep.CASCollisions++
			for _, st := range casSenders {
				st.timer = 2 + rng.Intn(cfg.ListenRange)
			}
		}

		// Progress the other phases.
		senders := sendingCount(states)
		for _, st := range states {
			switch st.phase {
			case phaseColdstartLeader:
				st.timer--
				if st.timer <= 0 && senders >= 2 {
					// Consistency check passed: another coldstart
					// node answered.
					st.phase = phaseNormalActive
					rep.JoinCycle[st.cfg.Name] = cycle
				}
			case phaseColdstartJoin:
				st.timer--
				if st.timer <= 0 {
					st.sending = true
					st.phase = phaseNormalActive
					rep.JoinCycle[st.cfg.Name] = cycle
				}
			case phaseIntegrating:
				// Integration needs two distinct senders visible.
				if senders >= 2 {
					st.timer--
					if st.timer <= 0 {
						st.phase = phaseNormalActive
						rep.JoinCycle[st.cfg.Name] = cycle
					}
				}
			}
		}

		if allUp(states) {
			rep.StartupCycles = cycle
			return rep, nil
		}
	}
	return rep, ErrTimeout
}

// leaderSending reports whether any node is already transmitting startup
// frames.
func leaderSending(states []*nodeState) bool {
	for _, st := range states {
		if st.sending {
			return true
		}
	}
	return false
}

// sendingCount returns how many nodes transmit startup/sync frames.
func sendingCount(states []*nodeState) int {
	n := 0
	for _, st := range states {
		if st.sending {
			n++
		}
	}
	return n
}

// allUp reports whether every live node reached normal-active operation.
func allUp(states []*nodeState) bool {
	for _, st := range states {
		if st.phase != phaseNormalActive && st.phase != phaseDead {
			return false
		}
	}
	return true
}

// defaultListenRange is the listen-timeout range in cycles when a
// Config leaves it unset, and the range ReintegrationCycles draws from.
const defaultListenRange = 8

// ReintegrationCycles returns how many communication cycles a halted node
// needs before it can rejoin a running cluster: the randomized listen
// window (mirroring Simulate's listen-timeout draw at the default range)
// plus the two double-cycles of consistent sync-frame observation that
// integration requires.  The caller mixes the node identity and halt
// instance into seed so repeated halts of the same node draw fresh
// timeouts while the whole run stays deterministic.
func ReintegrationCycles(seed uint64) int {
	rng := fault.NewRNG(seed ^ 0x57A27)
	return 2 + rng.Intn(defaultListenRange) + 4
}

// WakeupNode configures one member for the wakeup simulation.
type WakeupNode struct {
	// Name labels the node.
	Name string
	// CanWake marks nodes allowed to transmit the wakeup pattern (WUP);
	// typically the coldstart nodes.
	CanWake bool
	// WakeDelay is how many cycles after the wake decision this node's
	// transceiver needs to leave sleep once it hears a WUP.
	WakeDelay int
	// Dead marks a node whose transceiver never wakes.
	Dead bool
}

// WakeupConfig parameterizes a wakeup simulation.
type WakeupConfig struct {
	// Nodes is the cluster membership.
	Nodes []WakeupNode
	// MaxCycles bounds the simulation (0 → 256).
	MaxCycles int
	// Seed randomizes which wake-capable node initiates.
	Seed uint64
}

// WakeupReport summarizes a wakeup run.
type WakeupReport struct {
	// Initiator names the node that transmitted the wakeup pattern.
	Initiator string
	// AwakeCycle maps node names to the cycle their transceiver woke;
	// dead nodes are absent.
	AwakeCycle map[string]int
	// WakeupCycles is the cycle at which every live node was awake.
	WakeupCycles int
}

// SimulateWakeup runs the FlexRay wakeup: one wake-capable node transmits
// the wakeup pattern on the bus; every other transceiver detects it and
// leaves sleep after its wake delay.  Wakeup precedes startup — a cluster
// is typically brought up as wakeup → coldstart → clock sync.
func SimulateWakeup(cfg WakeupConfig) (WakeupReport, error) {
	if len(cfg.Nodes) == 0 {
		return WakeupReport{}, fmt.Errorf("%w: no nodes", ErrBadConfig)
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 256
	}
	rng := fault.NewRNG(cfg.Seed ^ 0x3AC3)

	var wakers []int
	for i, n := range cfg.Nodes {
		if n.CanWake && !n.Dead {
			wakers = append(wakers, i)
		}
	}
	if len(wakers) == 0 {
		return WakeupReport{}, fmt.Errorf("%w: no live wake-capable node", ErrNoColdstarters)
	}
	initiator := wakers[rng.Intn(len(wakers))]

	rep := WakeupReport{
		Initiator:  cfg.Nodes[initiator].Name,
		AwakeCycle: make(map[string]int, len(cfg.Nodes)),
	}
	rep.AwakeCycle[cfg.Nodes[initiator].Name] = 0
	for cycle := 0; cycle < cfg.MaxCycles; cycle++ {
		allAwake := true
		for _, n := range cfg.Nodes {
			if n.Dead {
				continue
			}
			if _, awake := rep.AwakeCycle[n.Name]; awake {
				continue
			}
			// The WUP has been on the bus since cycle 0; the node
			// wakes once its delay elapses.
			if cycle >= n.WakeDelay {
				rep.AwakeCycle[n.Name] = cycle
				continue
			}
			allAwake = false
		}
		if allAwake {
			rep.WakeupCycles = cycle
			return rep, nil
		}
	}
	return rep, ErrTimeout
}
