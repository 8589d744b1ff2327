package workload

import (
	"strings"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/signal"
)

func TestBBWMessageTable(t *testing.T) {
	set := BBW()
	if err := set.Validate(); err != nil {
		t.Fatalf("BBW().Validate() = %v", err)
	}
	if len(set.Messages) != 20 {
		t.Fatalf("BBW has %d messages, want 20 (Table II)", len(set.Messages))
	}
	// Spot-check rows 1, 3 and 20 against Table II.
	m := set.Messages[0]
	if m.Offset != 280*time.Microsecond || m.Period != 8*time.Millisecond ||
		m.Deadline != 8*time.Millisecond || m.Bits != 1292 {
		t.Errorf("BBW row 1 = %+v, want offset 0.28ms period 8ms deadline 8ms 1292 bits", m)
	}
	m = set.Messages[2]
	if m.Offset != 580*time.Microsecond || m.Period != time.Millisecond || m.Bits != 1574 {
		t.Errorf("BBW row 3 = %+v, want offset 0.58ms period 1ms 1574 bits", m)
	}
	m = set.Messages[19]
	if m.Offset != 680*time.Microsecond || m.Period != time.Millisecond || m.Bits != 878 {
		t.Errorf("BBW row 20 = %+v, want offset 0.68ms period 1ms 878 bits", m)
	}
	// All static, IDs 1..20.
	for i, m := range set.Messages {
		if m.Kind != signal.Periodic {
			t.Errorf("BBW message %d kind = %v, want periodic", i+1, m.Kind)
		}
		if m.ID != i+1 {
			t.Errorf("BBW message %d ID = %d", i+1, m.ID)
		}
	}
}

func TestACCMessageTable(t *testing.T) {
	set := ACC()
	if err := set.Validate(); err != nil {
		t.Fatalf("ACC().Validate() = %v", err)
	}
	if len(set.Messages) != 20 {
		t.Fatalf("ACC has %d messages, want 20 (Table III)", len(set.Messages))
	}
	// Periods are 16, 24, 32 ms in blocks of 5, 7, 8 (Table III).
	periodCounts := make(map[time.Duration]int)
	for _, m := range set.Messages {
		periodCounts[m.Period]++
		if m.Deadline != m.Period {
			t.Errorf("ACC %q deadline %v != period %v", m.Name, m.Deadline, m.Period)
		}
	}
	if periodCounts[16*time.Millisecond] != 5 ||
		periodCounts[24*time.Millisecond] != 7 ||
		periodCounts[32*time.Millisecond] != 8 {
		t.Errorf("ACC period histogram = %v, want 5×16ms, 7×24ms, 8×32ms", periodCounts)
	}
	// Row 16 is one of the 256-bit messages.
	if set.Messages[15].Bits != 256 {
		t.Errorf("ACC row 16 bits = %d, want 256", set.Messages[15].Bits)
	}
	// Total: 12×1024 + 4×1280 + 4×256.
	if got := set.TotalBits(); got != 12*1024+4*1280+4*256 {
		t.Errorf("ACC TotalBits() = %d", got)
	}
}

func TestMessagesSpreadOverNodes(t *testing.T) {
	for _, set := range []signal.Set{BBW(), ACC()} {
		if got := set.Nodes(); got != NodeCount {
			t.Errorf("%s spans %d nodes, want %d", set.Name, got, NodeCount)
		}
	}
}

func TestSyntheticReproducible(t *testing.T) {
	a, err := Synthetic(SyntheticOptions{Messages: 40, Seed: 1})
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	b, err := Synthetic(SyntheticOptions{Messages: 40, Seed: 1})
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	for i := range a.Messages {
		if !sameMessage(a.Messages[i], b.Messages[i]) {
			t.Fatalf("same-seed synthetic sets differ at message %d", i)
		}
	}
	c, err := Synthetic(SyntheticOptions{Messages: 40, Seed: 2})
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	same := 0
	for i := range a.Messages {
		if sameMessage(a.Messages[i], c.Messages[i]) {
			same++
		}
	}
	if same == len(a.Messages) {
		t.Error("different seeds produced identical sets")
	}
}

func TestSyntheticRespectsPaperRanges(t *testing.T) {
	set, err := Synthetic(SyntheticOptions{Messages: 200, Seed: 42})
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	if err := set.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for _, m := range set.Messages {
		if m.Period < 5*time.Millisecond || m.Period > 50*time.Millisecond {
			t.Errorf("%q period %v outside 5–50ms", m.Name, m.Period)
		}
		if m.Deadline < time.Millisecond || m.Deadline > 20*time.Millisecond {
			t.Errorf("%q deadline %v outside 1–20ms", m.Name, m.Deadline)
		}
		if m.Deadline > m.Period {
			t.Errorf("%q deadline %v > period %v", m.Name, m.Deadline, m.Period)
		}
	}
}

func TestSyntheticRejectsBadCount(t *testing.T) {
	if _, err := Synthetic(SyntheticOptions{Messages: 0}); err == nil {
		t.Error("Synthetic(0) accepted")
	}
}

// Zero selects a generator's default; a negative option is an error that
// names the field, as is a payload the frame format cannot carry.
func TestGeneratorsRejectBadOptions(t *testing.T) {
	for _, tt := range []struct {
		name  string
		gen   func() (signal.Set, error)
		field string
	}{
		{"synthetic first ID", func() (signal.Set, error) {
			return Synthetic(SyntheticOptions{Messages: 5, FirstID: -7})
		}, "FirstID"},
		{"SAE count", func() (signal.Set, error) {
			return SAEAperiodic(SAEAperiodicOptions{Count: -3})
		}, "Count"},
		{"SAE first ID", func() (signal.Set, error) {
			return SAEAperiodic(SAEAperiodicOptions{FirstID: -5})
		}, "FirstID"},
		{"signal-level nodes", func() (signal.Set, error) {
			return SyntheticSignals(SignalLevelOptions{Signals: 20, Nodes: -2})
		}, "Nodes"},
		{"signal-level first ID", func() (signal.Set, error) {
			return SyntheticSignals(SignalLevelOptions{Signals: 20, FirstID: -1})
		}, "FirstID"},
		{"signal-level negative payload", func() (signal.Set, error) {
			return SyntheticSignals(SignalLevelOptions{Signals: 20, MaxPayloadBits: -8})
		}, "MaxPayloadBits"},
		{"signal-level payload above FlexRay maximum", func() (signal.Set, error) {
			return SyntheticSignals(SignalLevelOptions{Signals: 200, MaxPayloadBits: 8000})
		}, "MaxPayloadBits"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			set, err := tt.gen()
			if err == nil || !strings.Contains(err.Error(), tt.field) {
				t.Fatalf("got %d messages, err %v; want an error naming %s",
					len(set.Messages), err, tt.field)
			}
		})
	}
}

func TestSAEAperiodic(t *testing.T) {
	for _, tt := range []struct {
		firstID int
	}{{81}, {121}} {
		set, err := SAEAperiodic(SAEAperiodicOptions{FirstID: tt.firstID, Seed: 3})
		if err != nil {
			t.Fatalf("SAEAperiodic(%d): %v", tt.firstID, err)
		}
		if len(set.Messages) != 30 {
			t.Fatalf("SAE count = %d, want 30", len(set.Messages))
		}
		for i, m := range set.Messages {
			if m.ID != tt.firstID+i {
				t.Errorf("SAE message %d ID = %d, want %d", i, m.ID, tt.firstID+i)
			}
			if m.Kind != signal.Aperiodic {
				t.Errorf("SAE message %d kind = %v", i, m.Kind)
			}
			if m.Deadline != 50*time.Millisecond || m.Period != 50*time.Millisecond {
				t.Errorf("SAE message %d period/deadline = %v/%v, want 50ms/50ms",
					i, m.Period, m.Deadline)
			}
		}
	}
}

func TestSAEDefaults(t *testing.T) {
	set, err := SAEAperiodic(SAEAperiodicOptions{})
	if err != nil {
		t.Fatalf("SAEAperiodic: %v", err)
	}
	if len(set.Messages) != 30 || set.Messages[0].ID != 81 {
		t.Errorf("defaults: %d messages, first ID %d; want 30, 81",
			len(set.Messages), set.Messages[0].ID)
	}
}

func TestMerge(t *testing.T) {
	sae, err := SAEAperiodic(SAEAperiodicOptions{FirstID: 81})
	if err != nil {
		t.Fatalf("SAEAperiodic: %v", err)
	}
	merged, err := Merge("bbw+sae", BBW(), sae)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if len(merged.Messages) != 50 {
		t.Errorf("merged has %d messages, want 50", len(merged.Messages))
	}
	if len(merged.Static()) != 20 || len(merged.Dynamic()) != 30 {
		t.Errorf("merged static/dynamic = %d/%d, want 20/30",
			len(merged.Static()), len(merged.Dynamic()))
	}
	// Colliding IDs fail.
	if _, err := Merge("dup", BBW(), BBW()); err == nil {
		t.Error("Merge with duplicate static IDs accepted")
	}
}

// sameMessage compares the scalar fields of two messages.
func sameMessage(a, b signal.Message) bool {
	return a.ID == b.ID && a.Name == b.Name && a.Node == b.Node &&
		a.Kind == b.Kind && a.Period == b.Period && a.Offset == b.Offset &&
		a.Deadline == b.Deadline && a.Bits == b.Bits && a.Priority == b.Priority
}

func TestSyntheticSignalsPacking(t *testing.T) {
	set, err := SyntheticSignals(SignalLevelOptions{Signals: 200, Seed: 5})
	if err != nil {
		t.Fatalf("SyntheticSignals: %v", err)
	}
	if err := set.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Packing must reduce 200 signals to far fewer frames.
	if len(set.Messages) >= 200 {
		t.Errorf("packing produced %d messages from 200 signals", len(set.Messages))
	}
	if len(set.Messages) == 0 {
		t.Fatal("no messages")
	}
	// Bits conserve.
	wantBits := 0
	for _, m := range set.Messages {
		for _, s := range m.Signals {
			wantBits += s.Bits
		}
		if m.Bits > signal.DefaultMaxPayloadBits {
			t.Errorf("message %q overflows payload: %d bits", m.Name, m.Bits)
		}
	}
	if set.TotalBits() != wantBits {
		t.Errorf("TotalBits %d != packed signal bits %d", set.TotalBits(), wantBits)
	}
	// Deterministic.
	again, err := SyntheticSignals(SignalLevelOptions{Signals: 200, Seed: 5})
	if err != nil {
		t.Fatalf("SyntheticSignals: %v", err)
	}
	if len(again.Messages) != len(set.Messages) {
		t.Errorf("same seed produced %d vs %d messages", len(again.Messages), len(set.Messages))
	}
	if _, err := SyntheticSignals(SignalLevelOptions{}); err == nil {
		t.Error("zero signal count accepted")
	}
}
