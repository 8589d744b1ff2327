// Package topology models FlexRay cluster topologies: the set of nodes
// (ECUs) and which of the two channels each is attached to.
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

// Cluster is a validated FlexRay cluster topology.
type Cluster struct {
	// Name labels the cluster.
	Name string
	// Nodes lists the ECUs.
	Nodes []Node
}

// DualChannelBus returns the paper's testbed topology: n nodes, all attached
// to both channels.
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
		Name:  fmt.Sprintf("dual-bus-%d", n),
		Nodes: nodes,
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
