package timebase

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func validConfig() Config {
	return Config{
		MacrotickDuration:         time.Microsecond,
		MacroPerCycle:             5000,
		StaticSlots:               80,
		StaticSlotLen:             40,
		Minislots:                 200,
		MinislotLen:               8,
		SymbolWindowLen:           0,
		DynamicSlotIdlePhase:      1,
		MinislotActionPointOffset: 2,
	}
}

func TestValidateOK(t *testing.T) {
	if err := validConfig().Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr error
	}{
		{"zero macrotick", func(c *Config) { c.MacrotickDuration = 0 }, ErrNonPositive},
		{"zero cycle", func(c *Config) { c.MacroPerCycle = 0 }, ErrNonPositive},
		{"zero static slots", func(c *Config) { c.StaticSlots = 0 }, ErrNonPositive},
		{"zero static slot len", func(c *Config) { c.StaticSlotLen = 0 }, ErrNonPositive},
		{"negative minislots", func(c *Config) { c.Minislots = -1 }, ErrNonPositive},
		{"zero minislot len", func(c *Config) { c.MinislotLen = 0 }, ErrNonPositive},
		{"negative symbol window", func(c *Config) { c.SymbolWindowLen = -1 }, ErrNonPositive},
		{"negative idle phase", func(c *Config) { c.DynamicSlotIdlePhase = -1 }, ErrNonPositive},
		{"overflow", func(c *Config) { c.StaticSlots = 200 }, ErrCycleOverflow},
		{"latest tx too large", func(c *Config) { c.LatestTx = 1000 }, ErrLatestTx},
		{"latest tx negative", func(c *Config) { c.LatestTx = -1 }, ErrLatestTx},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := validConfig()
			tt.mutate(&c)
			err := c.Validate()
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate() = %v, want errors.Is(..., %v)", err, tt.wantErr)
			}
		})
	}
}

func TestValidateActionPointOffsetTooLarge(t *testing.T) {
	c := validConfig()
	c.MinislotActionPointOffset = c.MinislotLen
	if err := c.Validate(); err == nil {
		t.Fatal("Validate() = nil, want error for action point offset >= minislot length")
	}
}

func TestLatencyConfig(t *testing.T) {
	for _, ms := range []int{25, 50, 75, 100} {
		c := LatencyConfig(ms)
		if err := c.Validate(); err != nil {
			t.Fatalf("LatencyConfig(%d).Validate() = %v", ms, err)
		}
		if got := c.CycleDuration(); got != time.Millisecond {
			t.Errorf("CycleDuration() = %v, want 1ms", got)
		}
		if got := c.ToDuration(c.StaticSegmentLen()); got != 750*time.Microsecond {
			t.Errorf("static segment = %v, want 750µs", got)
		}
		if c.Minislots != ms {
			t.Errorf("Minislots = %d, want %d", c.Minislots, ms)
		}
	}
}

func TestSegmentLengths(t *testing.T) {
	c := validConfig()
	if got := c.StaticSegmentLen(); got != 3200 {
		t.Errorf("StaticSegmentLen() = %d, want 3200", got)
	}
	if got := c.DynamicSegmentLen(); got != 1600 {
		t.Errorf("DynamicSegmentLen() = %d, want 1600", got)
	}
	if got := c.NetworkIdleLen(); got != 200 {
		t.Errorf("NetworkIdleLen() = %d, want 200", got)
	}
}

func TestDurationRoundTrip(t *testing.T) {
	c := validConfig()
	if got := c.ToDuration(5000); got != 5*time.Millisecond {
		t.Errorf("ToDuration(5000) = %v, want 5ms", got)
	}
	if got := c.FromDuration(5 * time.Millisecond); got != 5000 {
		t.Errorf("FromDuration(5ms) = %d, want 5000", got)
	}
	// FromDuration rounds up.
	if got := c.FromDuration(1500 * time.Nanosecond); got != 2 {
		t.Errorf("FromDuration(1.5µs) = %d, want 2", got)
	}
	if got := c.FromDuration(-time.Second); got != 0 {
		t.Errorf("FromDuration(-1s) = %d, want 0", got)
	}
}

func TestCycleArithmetic(t *testing.T) {
	c := validConfig()
	tests := []struct {
		t         Macrotick
		wantCycle int64
		wantOff   Macrotick
	}{
		{0, 0, 0},
		{4999, 0, 4999},
		{5000, 1, 0},
		{12345, 2, 2345},
	}
	for _, tt := range tests {
		if got := c.CycleOf(tt.t); got != tt.wantCycle {
			t.Errorf("CycleOf(%d) = %d, want %d", tt.t, got, tt.wantCycle)
		}
		if got := c.OffsetInCycle(tt.t); got != tt.wantOff {
			t.Errorf("OffsetInCycle(%d) = %d, want %d", tt.t, got, tt.wantOff)
		}
	}
	if got := c.CycleOf(-1); got != -1 {
		t.Errorf("CycleOf(-1) = %d, want -1", got)
	}
	if got := c.CycleStart(3); got != 15000 {
		t.Errorf("CycleStart(3) = %d, want 15000", got)
	}
}

func TestSlotStarts(t *testing.T) {
	c := validConfig()
	if got := c.StaticSlotStart(0, 1); got != 0 {
		t.Errorf("StaticSlotStart(0,1) = %d, want 0", got)
	}
	if got := c.StaticSlotStart(1, 2); got != 5040 {
		t.Errorf("StaticSlotStart(1,2) = %d, want 5040", got)
	}
	if got := c.DynamicSegmentStart(0); got != 3200 {
		t.Errorf("DynamicSegmentStart(0) = %d, want 3200", got)
	}
	if got := c.MinislotStart(0, 1); got != 3200 {
		t.Errorf("MinislotStart(0,1) = %d, want 3200", got)
	}
	if got := c.MinislotStart(0, 3); got != 3216 {
		t.Errorf("MinislotStart(0,3) = %d, want 3216", got)
	}
}

func TestSlotAt(t *testing.T) {
	c := validConfig()
	tests := []struct {
		t        Macrotick
		wantWin  Window
		wantSlot int
	}{
		{0, WindowStatic, 1},
		{39, WindowStatic, 1},
		{40, WindowStatic, 2},
		{3199, WindowStatic, 80},
		{3200, WindowDynamic, 1},
		{3207, WindowDynamic, 1},
		{3208, WindowDynamic, 2},
		{4799, WindowDynamic, 200},
		{4800, WindowIdle, 0},
		{4999, WindowIdle, 0},
		{5000, WindowStatic, 1}, // next cycle
	}
	for _, tt := range tests {
		win, slot := c.SlotAt(tt.t)
		if win != tt.wantWin || slot != tt.wantSlot {
			t.Errorf("SlotAt(%d) = (%v, %d), want (%v, %d)",
				tt.t, win, slot, tt.wantWin, tt.wantSlot)
		}
	}
}

func TestSlotAtSymbolWindow(t *testing.T) {
	c := validConfig()
	c.SymbolWindowLen = 100
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate() = %v", err)
	}
	win, _ := c.SlotAt(4800)
	if win != WindowSymbol {
		t.Errorf("SlotAt(4800) window = %v, want symbol", win)
	}
	win, _ = c.SlotAt(4900)
	if win != WindowIdle {
		t.Errorf("SlotAt(4900) window = %v, want idle", win)
	}
}

func TestMinislotsForFrame(t *testing.T) {
	c := validConfig() // minislot len 8, idle phase 1
	tests := []struct {
		frameLen Macrotick
		want     int
	}{
		{0, 1},   // idle phase only
		{1, 2},   // 1 minislot + idle
		{8, 2},   // exactly 1 minislot + idle
		{9, 3},   // 2 minislots + idle
		{64, 9},  // 8 minislots + idle
		{65, 10}, // 9 minislots + idle
	}
	for _, tt := range tests {
		if got := c.MinislotsForFrame(tt.frameLen); got != tt.want {
			t.Errorf("MinislotsForFrame(%d) = %d, want %d", tt.frameLen, got, tt.want)
		}
	}
}

func TestDeriveLatestTx(t *testing.T) {
	c := validConfig() // 200 minislots
	// A frame needing 9+1 minislots can start no later than minislot 191.
	if got := c.DeriveLatestTx(72); got != 191 {
		t.Errorf("DeriveLatestTx(72) = %d, want 191", got)
	}
	// A frame longer than the whole dynamic segment can never start.
	if got := c.DeriveLatestTx(100000); got != 0 {
		t.Errorf("DeriveLatestTx(huge) = %d, want 0", got)
	}
}

func TestWindowString(t *testing.T) {
	tests := []struct {
		w    Window
		want string
	}{
		{WindowStatic, "static"},
		{WindowDynamic, "dynamic"},
		{WindowSymbol, "symbol"},
		{WindowIdle, "idle"},
		{Window(99), "Window(99)"},
	}
	for _, tt := range tests {
		if got := tt.w.String(); got != tt.want {
			t.Errorf("Window(%d).String() = %q, want %q", int(tt.w), got, tt.want)
		}
	}
}

// Property: SlotAt and the *Start functions are mutually consistent — the
// start time of the slot reported by SlotAt is never after t, and t falls
// before the start of the next slot.
func TestSlotAtConsistencyProperty(t *testing.T) {
	c := validConfig()
	f := func(raw uint32) bool {
		tm := Macrotick(raw % (5 * uint32(c.MacroPerCycle)))
		win, slot := c.SlotAt(tm)
		cycle := c.CycleOf(tm)
		switch win {
		case WindowStatic:
			start := c.StaticSlotStart(cycle, slot)
			return start <= tm && tm < start+c.StaticSlotLen
		case WindowDynamic:
			start := c.MinislotStart(cycle, slot)
			return start <= tm && tm < start+c.MinislotLen
		default:
			return tm >= c.DynamicSegmentStart(cycle)+c.DynamicSegmentLen()
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: segment windows tile the cycle: every macrotick belongs to
// exactly one window and the per-window totals match the configured lengths.
func TestCycleTilingProperty(t *testing.T) {
	c := LatencyConfig(50)
	counts := make(map[Window]Macrotick)
	for tm := Macrotick(0); tm < c.MacroPerCycle; tm++ {
		w, _ := c.SlotAt(tm)
		counts[w]++
	}
	if counts[WindowStatic] != c.StaticSegmentLen() {
		t.Errorf("static window covers %d, want %d", counts[WindowStatic], c.StaticSegmentLen())
	}
	if counts[WindowDynamic] != c.DynamicSegmentLen() {
		t.Errorf("dynamic window covers %d, want %d", counts[WindowDynamic], c.DynamicSegmentLen())
	}
	if counts[WindowIdle] != c.NetworkIdleLen() {
		t.Errorf("idle window covers %d, want %d", counts[WindowIdle], c.NetworkIdleLen())
	}
}
