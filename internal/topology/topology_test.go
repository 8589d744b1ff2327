package topology

import (
	"errors"
	"testing"

	"github.com/flexray-go/coefficient/internal/frame"
)

func TestDualChannelBus(t *testing.T) {
	c := DualChannelBus(10)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate() = %v", err)
	}
	if len(c.Nodes) != 10 {
		t.Fatalf("Nodes = %d, want 10", len(c.Nodes))
	}
	for _, ch := range []frame.Channel{frame.ChannelA, frame.ChannelB} {
		if got := len(c.AttachedNodes(ch)); got != 10 {
			t.Errorf("AttachedNodes(%v) = %d, want 10", ch, got)
		}
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
				Nodes: []Node{{ID: 1, ChannelA: true}, {ID: 1, ChannelA: true}},
			},
			wantErr: ErrDuplicateNode,
		},
		{
			name: "negative id",
			cluster: Cluster{
				Nodes: []Node{{ID: 0, ChannelA: true}, {ID: -1, ChannelA: true}},
			},
			wantErr: ErrNegativeNode,
		},
		{
			name: "unattached node",
			cluster: Cluster{
				Nodes: []Node{{ID: 1}},
			},
			wantErr: ErrUnattached,
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

func TestAttachedPartial(t *testing.T) {
	c := Cluster{
		Nodes: []Node{
			{ID: 0, ChannelA: true},
			{ID: 1, ChannelB: true},
			{ID: 2, ChannelA: true, ChannelB: true},
		},
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate() = %v", err)
	}
	a := c.AttachedNodes(frame.ChannelA)
	if len(a) != 2 || a[0] != 0 || a[1] != 2 {
		t.Errorf("AttachedNodes(A) = %v, want [0 2]", a)
	}
	if !c.Nodes[2].Attached(frame.ChannelB) {
		t.Error("node 2 should be attached to B")
	}
	if c.Nodes[0].Attached(frame.Channel(9)) {
		t.Error("attached to invalid channel")
	}
}
