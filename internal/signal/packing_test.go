package signal

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sig(name string, node, bits int, period time.Duration) Signal {
	return Signal{
		Name:     name,
		Node:     node,
		Kind:     Periodic,
		Period:   period,
		Offset:   0,
		Deadline: period,
		Bits:     bits,
	}
}

func TestPackSingleGroup(t *testing.T) {
	signals := []Signal{
		sig("a", 1, 600, 8*time.Millisecond),
		sig("b", 1, 500, 8*time.Millisecond),
		sig("c", 1, 400, 8*time.Millisecond),
	}
	msgs, err := Pack(signals, PackOptions{MaxPayloadBits: 1000, FirstID: 1})
	if err != nil {
		t.Fatalf("Pack() error: %v", err)
	}
	// FFD: 600 alone won't fit with 500; 600+400=1000 fits; 500 in second bin.
	if len(msgs) != 2 {
		t.Fatalf("Pack() produced %d messages, want 2", len(msgs))
	}
	if msgs[0].Bits != 1000 || msgs[1].Bits != 500 {
		t.Errorf("bins = %d, %d bits; want 1000, 500", msgs[0].Bits, msgs[1].Bits)
	}
	if msgs[0].ID != 1 || msgs[1].ID != 2 {
		t.Errorf("IDs = %d, %d; want 1, 2", msgs[0].ID, msgs[1].ID)
	}
}

func TestPackSeparatesIncompatibleSignals(t *testing.T) {
	signals := []Signal{
		sig("n1", 1, 100, 8*time.Millisecond),
		sig("n2", 2, 100, 8*time.Millisecond),                                         // different node
		sig("p16", 1, 100, 16*time.Millisecond),                                       // different period
		{Name: "ap", Node: 1, Kind: Aperiodic, Deadline: time.Millisecond, Bits: 100}, // different kind
	}
	msgs, err := Pack(signals, PackOptions{})
	if err != nil {
		t.Fatalf("Pack() error: %v", err)
	}
	if len(msgs) != 4 {
		t.Fatalf("Pack() produced %d messages, want 4 (no cross-group packing)", len(msgs))
	}
}

func TestPackTakesMinDeadlineAndOffset(t *testing.T) {
	a := sig("a", 1, 100, 8*time.Millisecond)
	a.Deadline = 4 * time.Millisecond
	a.Offset = 2 * time.Millisecond
	b := sig("b", 1, 100, 8*time.Millisecond)
	b.Deadline = 6 * time.Millisecond
	b.Offset = time.Millisecond
	msgs, err := Pack([]Signal{a, b}, PackOptions{})
	if err != nil {
		t.Fatalf("Pack() error: %v", err)
	}
	if len(msgs) != 1 {
		t.Fatalf("Pack() produced %d messages, want 1", len(msgs))
	}
	if msgs[0].Deadline != 4*time.Millisecond {
		t.Errorf("Deadline = %v, want 4ms (minimum)", msgs[0].Deadline)
	}
	if msgs[0].Offset != time.Millisecond {
		t.Errorf("Offset = %v, want 1ms (minimum)", msgs[0].Offset)
	}
}

func TestPackRejectsOversizedSignal(t *testing.T) {
	s := sig("huge", 1, 3000, 8*time.Millisecond)
	_, err := Pack([]Signal{s}, PackOptions{MaxPayloadBits: 2032})
	if !errors.Is(err, ErrPayloadOverflow) {
		t.Fatalf("Pack() = %v, want ErrPayloadOverflow", err)
	}
}

func TestPackRejectsBadOptions(t *testing.T) {
	s := sig("a", 1, 100, 8*time.Millisecond)
	for _, tt := range []struct {
		name  string
		opts  PackOptions
		field string
	}{
		{"negative capacity", PackOptions{MaxPayloadBits: -1}, "MaxPayloadBits"},
		{"capacity above FlexRay maximum", PackOptions{MaxPayloadBits: 2033}, "MaxPayloadBits"},
		{"negative first ID", PackOptions{FirstID: -4}, "FirstID"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Pack([]Signal{s}, tt.opts)
			if err == nil || !strings.Contains(err.Error(), tt.field) {
				t.Fatalf("Pack(%+v) = %v, want an error naming %s", tt.opts, err, tt.field)
			}
		})
	}
}

func TestPackRejectsInvalidSignal(t *testing.T) {
	s := sig("bad", 1, 0, 8*time.Millisecond)
	if _, err := Pack([]Signal{s}, PackOptions{}); err == nil {
		t.Fatal("Pack() = nil error, want validation error")
	}
}

func TestPackEmptyInput(t *testing.T) {
	msgs, err := Pack(nil, PackOptions{})
	if err != nil {
		t.Fatalf("Pack(nil) error: %v", err)
	}
	if len(msgs) != 0 {
		t.Fatalf("Pack(nil) = %d messages, want 0", len(msgs))
	}
}

// Property: packing conserves bits, never overflows a bin, and produces
// messages that validate.
func TestPackConservationProperty(t *testing.T) {
	f := func(sizes []uint16, nodes []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		const payloadCap = 2032
		var signals []Signal
		total := 0
		for i, raw := range sizes {
			bits := int(raw%payloadCap) + 1
			node := 1
			if len(nodes) > 0 {
				node = int(nodes[i%len(nodes)]%4) + 1
			}
			s := sig("s", node, bits, 8*time.Millisecond)
			signals = append(signals, s)
			total += bits
		}
		msgs, err := Pack(signals, PackOptions{MaxPayloadBits: payloadCap})
		if err != nil {
			return false
		}
		sum := 0
		seen := make(map[int]bool)
		for _, m := range msgs {
			if m.Bits > payloadCap || m.Validate() != nil || seen[m.ID] {
				return false
			}
			seen[m.ID] = true
			sum += m.Bits
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
