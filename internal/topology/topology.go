// Package topology models FlexRay cluster topologies: the set of nodes
// (ECUs) and how each connects to the two channels, via a shared bus, active
// star couplers, or a hybrid of both.
//
// The simulator uses the topology to decide which nodes may transmit and
// observe frames on which channel; a frame sent on a channel a node is not
// attached to is a configuration error caught at validation time.
package topology

import (
	"errors"
	"fmt"

	"github.com/flexray-go/coefficient/internal/frame"
)

// Kind is the physical layout of a channel.
type Kind int

// Channel layouts supported by the FlexRay specification.
const (
	// KindBus is a passive linear bus.
	KindBus Kind = iota + 1
	// KindStar is an active star: all traffic passes one or more couplers.
	KindStar
	// KindHybrid mixes bus stubs attached to star couplers.
	KindHybrid
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindBus:
		return "bus"
	case KindStar:
		return "star"
	case KindHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Errors returned by Validate.
var (
	// ErrNoNodes is returned for clusters without nodes.
	ErrNoNodes = errors.New("topology: cluster has no nodes")
	// ErrDuplicateNode is returned for repeated node IDs.
	ErrDuplicateNode = errors.New("topology: duplicate node ID")
	// ErrNegativeNode is returned for a node ID below zero.
	ErrNegativeNode = errors.New("topology: negative node ID")
	// ErrUnattached is returned for a node attached to no channel.
	ErrUnattached = errors.New("topology: node attached to no channel")
	// ErrNoCoupler is returned for star channels without couplers.
	ErrNoCoupler = errors.New("topology: star channel needs at least one coupler")
)

// Node is one ECU attachment point.
type Node struct {
	// ID is the cluster-unique, non-negative node identifier.
	ID int
	// Name labels the node for tracing.
	Name string
	// ChannelA and ChannelB say which channels the node's bus drivers are
	// attached to.  Safety-critical nodes attach to both.
	ChannelA, ChannelB bool
}

// Attached reports whether the node is attached to ch.
func (n Node) Attached(ch frame.Channel) bool {
	switch ch {
	case frame.ChannelA:
		return n.ChannelA
	case frame.ChannelB:
		return n.ChannelB
	default:
		return false
	}
}

// ChannelConfig describes one channel's physical layout.
type ChannelConfig struct {
	// Kind is the layout.
	Kind Kind
	// Couplers is the number of active star couplers (star/hybrid only).
	Couplers int
}

// Cluster is a validated FlexRay cluster topology.
type Cluster struct {
	// Name labels the cluster.
	Name string
	// Nodes lists the ECUs.
	Nodes []Node
	// ChannelA and ChannelB describe the two channels' layouts.
	ChannelA, ChannelB ChannelConfig
}

// DualChannelBus returns the paper's testbed topology: n nodes, all attached
// to both channels, each channel a passive bus.
func DualChannelBus(n int) Cluster {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{
			ID:       i,
			Name:     fmt.Sprintf("ecu-%02d", i),
			ChannelA: true,
			ChannelB: true,
		}
	}
	return Cluster{
		Name:     fmt.Sprintf("dual-bus-%d", n),
		Nodes:    nodes,
		ChannelA: ChannelConfig{Kind: KindBus},
		ChannelB: ChannelConfig{Kind: KindBus},
	}
}

// Validate checks the cluster for structural consistency.
func (c Cluster) Validate() error {
	if len(c.Nodes) == 0 {
		return ErrNoNodes
	}
	seen := make(map[int]string, len(c.Nodes))
	for _, n := range c.Nodes {
		if n.ID < 0 {
			return fmt.Errorf("%w: %d (%q)", ErrNegativeNode, n.ID, n.Name)
		}
		if prev, dup := seen[n.ID]; dup {
			return fmt.Errorf("%w: %d (%q and %q)", ErrDuplicateNode, n.ID, prev, n.Name)
		}
		seen[n.ID] = n.Name
		if !n.ChannelA && !n.ChannelB {
			return fmt.Errorf("%w: node %d (%q)", ErrUnattached, n.ID, n.Name)
		}
	}
	for _, chc := range []struct {
		ch  frame.Channel
		cfg ChannelConfig
	}{{frame.ChannelA, c.ChannelA}, {frame.ChannelB, c.ChannelB}} {
		switch chc.cfg.Kind {
		case KindBus:
			// No couplers needed.
		case KindStar, KindHybrid:
			if chc.cfg.Couplers < 1 {
				return fmt.Errorf("%w: channel %v", ErrNoCoupler, chc.ch)
			}
		default:
			return fmt.Errorf("topology: channel %v has unknown kind %d", chc.ch, int(chc.cfg.Kind))
		}
	}
	return nil
}

// Node returns the node with the given ID.
func (c Cluster) Node(id int) (Node, bool) {
	for _, n := range c.Nodes {
		if n.ID == id {
			return n, true
		}
	}
	return Node{}, false
}

// AttachedNodes returns the IDs of nodes attached to ch, in declaration
// order.
func (c Cluster) AttachedNodes(ch frame.Channel) []int {
	var out []int
	for _, n := range c.Nodes {
		if n.Attached(ch) {
			out = append(out, n.ID)
		}
	}
	return out
}
