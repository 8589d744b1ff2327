package signal

import (
	"errors"
	"testing"
	"time"
)

func validPeriodic() Signal {
	return Signal{
		Name:     "wheel-speed",
		Node:     1,
		Kind:     Periodic,
		Period:   8 * time.Millisecond,
		Offset:   time.Millisecond,
		Deadline: 8 * time.Millisecond,
		Bits:     64,
	}
}

func validAperiodic() Signal {
	return Signal{
		Name:     "door-event",
		Node:     2,
		Kind:     Aperiodic,
		Deadline: 50 * time.Millisecond,
		Bits:     32,
	}
}

func TestSignalValidateOK(t *testing.T) {
	if err := validPeriodic().Validate(); err != nil {
		t.Errorf("periodic Validate() = %v", err)
	}
	if err := validAperiodic().Validate(); err != nil {
		t.Errorf("aperiodic Validate() = %v", err)
	}
}

func TestSignalValidateErrors(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Signal)
		wantErr error
	}{
		{"zero bits", func(s *Signal) { s.Bits = 0 }, ErrBadLength},
		{"negative bits", func(s *Signal) { s.Bits = -5 }, ErrBadLength},
		{"zero deadline", func(s *Signal) { s.Deadline = 0 }, ErrBadDeadline},
		{"deadline > period", func(s *Signal) { s.Deadline = 9 * time.Millisecond }, ErrBadDeadline},
		{"zero period", func(s *Signal) { s.Period = 0 }, ErrBadPeriod},
		{"negative offset", func(s *Signal) { s.Offset = -time.Millisecond }, ErrBadOffset},
		{"offset >= period", func(s *Signal) { s.Offset = 8 * time.Millisecond }, ErrBadOffset},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := validPeriodic()
			tt.mutate(&s)
			if err := s.Validate(); !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate() = %v, want errors.Is(..., %v)", err, tt.wantErr)
			}
		})
	}
}

func TestAperiodicSignalValidateErrors(t *testing.T) {
	s := validAperiodic()
	s.Period = time.Millisecond
	if err := s.Validate(); !errors.Is(err, ErrBadPeriod) {
		t.Errorf("aperiodic with period: Validate() = %v, want ErrBadPeriod", err)
	}
	s = validAperiodic()
	s.Kind = Kind(42)
	if err := s.Validate(); err == nil {
		t.Error("unknown kind: Validate() = nil, want error")
	}
}

func TestKindString(t *testing.T) {
	if Periodic.String() != "periodic" || Aperiodic.String() != "aperiodic" {
		t.Error("Kind.String() mismatch")
	}
	if Kind(7).String() != "Kind(7)" {
		t.Errorf("Kind(7).String() = %q", Kind(7).String())
	}
}

func validMessage() Message {
	return Message{
		ID:       3,
		Name:     "brake-cmd",
		Node:     1,
		Kind:     Periodic,
		Period:   8 * time.Millisecond,
		Offset:   280 * time.Microsecond,
		Deadline: 8 * time.Millisecond,
		Bits:     1292,
	}
}

func TestMessageValidateOK(t *testing.T) {
	if err := validMessage().Validate(); err != nil {
		t.Fatalf("Validate() = %v", err)
	}
	// The largest frame FlexRay can carry: an 11-bit frame ID and a
	// 254-byte payload.
	m := validMessage()
	m.ID, m.Bits = 2047, 2032
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate() at the frame-format limits = %v", err)
	}
}

func TestMessageValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Message)
	}{
		{"zero bits", func(m *Message) { m.Bits = 0 }},
		{"zero id", func(m *Message) { m.ID = 0 }},
		{"id above 11 bits", func(m *Message) { m.ID = 2048 }},
		{"bits above payload", func(m *Message) { m.Bits = 2033 }},
		{"zero deadline", func(m *Message) { m.Deadline = 0 }},
		{"deadline > period", func(m *Message) { m.Deadline = 10 * time.Millisecond }},
		{"zero period", func(m *Message) { m.Period = 0 }},
		{"bad offset", func(m *Message) { m.Offset = 8 * time.Millisecond }},
		{"unknown kind", func(m *Message) { m.Kind = Kind(9) }},
		{"bad embedded signal", func(m *Message) { m.Signals = []Signal{{Name: "x"}} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := validMessage()
			tt.mutate(&m)
			if err := m.Validate(); err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}

func TestMessageBytes(t *testing.T) {
	tests := []struct {
		bits, want int
	}{
		{1, 1}, {8, 1}, {9, 2}, {1292, 162}, {2032, 254},
	}
	for _, tt := range tests {
		m := Message{Bits: tt.bits}
		if got := m.Bytes(); got != tt.want {
			t.Errorf("Bytes() with %d bits = %d, want %d", tt.bits, got, tt.want)
		}
	}
}

func TestSetValidateUniqueIDs(t *testing.T) {
	a := validMessage()
	b := validMessage()
	b.Name = "other"
	set := Set{Name: "dup", Messages: []Message{a, b}}
	if err := set.Validate(); err == nil {
		t.Fatal("Validate() = nil, want duplicate static frame ID error")
	}
	b.ID = 4
	set = Set{Name: "ok", Messages: []Message{a, b}}
	if err := set.Validate(); err != nil {
		t.Fatalf("Validate() = %v", err)
	}
}

func TestSetValidateDynamicDuplicates(t *testing.T) {
	d1 := Message{ID: 90, Name: "d1", Node: 1, Kind: Aperiodic, Deadline: 50 * time.Millisecond, Bits: 100}
	d2 := Message{ID: 90, Name: "d2", Node: 2, Kind: Aperiodic, Deadline: 50 * time.Millisecond, Bits: 100}
	set := Set{Name: "dyn-dup", Messages: []Message{d1, d2}}
	if err := set.Validate(); err == nil {
		t.Fatal("Validate() = nil, want duplicate dynamic frame ID error")
	}
}

func TestSetFilters(t *testing.T) {
	st := validMessage()
	dy := Message{ID: 90, Name: "evt", Node: 1, Kind: Aperiodic, Deadline: 50 * time.Millisecond, Bits: 100}
	st2 := validMessage()
	st2.ID = 1
	st2.Name = "first"
	set := Set{Name: "mix", Messages: []Message{st, dy, st2}}

	static := set.Static()
	if len(static) != 2 || static[0].ID != 1 || static[1].ID != 3 {
		t.Errorf("Static() = %+v, want IDs [1 3]", static)
	}
	dynamic := set.Dynamic()
	if len(dynamic) != 1 || dynamic[0].ID != 90 {
		t.Errorf("Dynamic() = %+v, want ID 90", dynamic)
	}
	if got := set.TotalBits(); got != 1292+100+1292 {
		t.Errorf("TotalBits() = %d", got)
	}
	if got := set.Nodes(); got != 1 {
		t.Errorf("Nodes() = %d, want 1", got)
	}
}
