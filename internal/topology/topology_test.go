package topology

import (
	"errors"
	"testing"
)

func TestDualChannelBus(t *testing.T) {
	c := DualChannelBus(10)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate() = %v", err)
	}
	if len(c.Nodes) != 10 {
		t.Fatalf("Nodes = %d, want 10", len(c.Nodes))
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name    string
		cluster Cluster
		wantErr error
	}{
		{
			name:    "no nodes",
			cluster: Cluster{},
			wantErr: ErrNoNodes,
		},
		{
			name: "duplicate id",
			cluster: Cluster{
				Nodes: []Node{{ID: 1}, {ID: 1}},
			},
			wantErr: ErrDuplicateNode,
		},
		{
			name: "negative id",
			cluster: Cluster{
				Nodes: []Node{{ID: 0}, {ID: -1}},
			},
			wantErr: ErrNegativeNode,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cluster.Validate(); !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate() = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestNodeLookup(t *testing.T) {
	c := DualChannelBus(3)
	n, ok := c.Node(2)
	if !ok || n.ID != 2 {
		t.Errorf("Node(2) = %+v, %v", n, ok)
	}
	if _, ok := c.Node(99); ok {
		t.Error("Node(99) found")
	}
}
