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
			cluster: Cluster{ChannelA: ChannelConfig{Kind: KindBus}, ChannelB: ChannelConfig{Kind: KindBus}},
			wantErr: ErrNoNodes,
		},
		{
			name: "duplicate id",
			cluster: Cluster{
				Nodes:    []Node{{ID: 1, ChannelA: true}, {ID: 1, ChannelA: true}},
				ChannelA: ChannelConfig{Kind: KindBus},
				ChannelB: ChannelConfig{Kind: KindBus},
			},
			wantErr: ErrDuplicateNode,
		},
		{
			name: "negative id",
			cluster: Cluster{
				Nodes:    []Node{{ID: 0, ChannelA: true}, {ID: -1, ChannelA: true}},
				ChannelA: ChannelConfig{Kind: KindBus},
				ChannelB: ChannelConfig{Kind: KindBus},
			},
			wantErr: ErrNegativeNode,
		},
		{
			name: "unattached node",
			cluster: Cluster{
				Nodes:    []Node{{ID: 1}},
				ChannelA: ChannelConfig{Kind: KindBus},
				ChannelB: ChannelConfig{Kind: KindBus},
			},
			wantErr: ErrUnattached,
		},
		{
			name: "star without coupler",
			cluster: Cluster{
				Nodes:    []Node{{ID: 1, ChannelA: true}},
				ChannelA: ChannelConfig{Kind: KindStar},
				ChannelB: ChannelConfig{Kind: KindBus},
			},
			wantErr: ErrNoCoupler,
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

func TestValidateStarWithCoupler(t *testing.T) {
	c := Cluster{
		Nodes:    []Node{{ID: 1, ChannelA: true, ChannelB: true}},
		ChannelA: ChannelConfig{Kind: KindStar, Couplers: 1},
		ChannelB: ChannelConfig{Kind: KindHybrid, Couplers: 2},
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate() = %v", err)
	}
}

func TestValidateUnknownKind(t *testing.T) {
	c := Cluster{
		Nodes:    []Node{{ID: 1, ChannelA: true}},
		ChannelA: ChannelConfig{Kind: Kind(42)},
		ChannelB: ChannelConfig{Kind: KindBus},
	}
	if err := c.Validate(); err == nil {
		t.Fatal("unknown kind accepted")
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
		ChannelA: ChannelConfig{Kind: KindBus},
		ChannelB: ChannelConfig{Kind: KindBus},
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

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindBus: "bus", KindStar: "star", KindHybrid: "hybrid", Kind(9): "Kind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
