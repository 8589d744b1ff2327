// Package topology models the FlexRay cluster the simulator runs: the set
// of nodes (ECUs) by ID and name.  Every node sits on both channels of the
// paper's dual-channel bus, so a node may transmit on either channel.
package topology

import (
	"errors"
	"fmt"
)

// Errors returned by Validate.
var (
	// ErrNoNodes is returned for clusters without nodes.
	ErrNoNodes = errors.New("topology: cluster has no nodes")
	// ErrDuplicateNode is returned for repeated node IDs.
	ErrDuplicateNode = errors.New("topology: duplicate node ID")
	// ErrNegativeNode is returned for a node ID below zero.
	ErrNegativeNode = errors.New("topology: negative node ID")
)

// Node is one ECU of the cluster.
type Node struct {
	// ID is the cluster-unique, non-negative node identifier.
	ID int
	// Name labels the node for tracing.
	Name string
}

// Cluster is a validated FlexRay cluster topology.
type Cluster struct {
	// Name labels the cluster.
	Name string
	// Nodes lists the ECUs.
	Nodes []Node
}

// DualChannelBus returns the paper's testbed topology: n nodes on both
// channels.
func DualChannelBus(n int) Cluster {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{ID: i, Name: fmt.Sprintf("ecu-%02d", i)}
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
