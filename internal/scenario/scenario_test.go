package scenario

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/timebase"
)

func testConfig() timebase.Config {
	return timebase.Config{
		MacrotickDuration:         time.Microsecond,
		MacroPerCycle:             1000,
		StaticSlots:               10,
		StaticSlotLen:             50,
		Minislots:                 40,
		MinislotLen:               5,
		DynamicSlotIdlePhase:      1,
		MinislotActionPointOffset: 1,
	}
}

const fullDoc = `{
  "name": "kitchen-sink",
  "channels": {
    "A": {
      "baseBER": 1e-7,
      "steps":  [{"start": "40ms", "ber": 1e-4}],
      "ramps":  [{"start": "10ms", "end": "20ms", "from": 1e-7, "to": 1e-5}],
      "bursts": [{"start": "25ms", "end": "30ms",
                  "berGood": 1e-7, "berBad": 1e-3,
                  "pGoodToBad": 0.2, "pBadToGood": 0.4}],
      "blackouts": [{"start": "32ms", "end": "35ms"}]
    },
    "B": {"baseBER": 1e-7}
  },
  "nodes": [{"node": 2, "failAt": "20ms", "recoverAt": "50ms"},
            {"node": 3, "failAt": "60ms"}]
}`

func TestParseFullDocument(t *testing.T) {
	s, err := Parse([]byte(fullDoc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Name != "kitchen-sink" {
		t.Errorf("Name = %q", s.Name)
	}
	a := s.Channels["A"]
	if a == nil || len(a.Steps) != 1 || len(a.Ramps) != 1 || len(a.Bursts) != 1 || len(a.Blackouts) != 1 {
		t.Fatalf("channel A timeline incomplete: %+v", a)
	}
	if a.Steps[0].Start.Std() != 40*time.Millisecond || a.Steps[0].End != 0 {
		t.Errorf("step = %+v, want open-ended at 40ms", a.Steps[0])
	}
	if len(s.Nodes) != 2 || s.Nodes[1].RecoverAt != 0 {
		t.Errorf("nodes = %+v", s.Nodes)
	}
}

func TestParseRoundTrip(t *testing.T) {
	s, err := Parse([]byte(fullDoc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	doc, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	s2, err := Parse(doc)
	if err != nil {
		t.Fatalf("re-Parse: %v", err)
	}
	doc2, err := json.Marshal(s2)
	if err != nil {
		t.Fatalf("re-Marshal: %v", err)
	}
	if string(doc) != string(doc2) {
		t.Errorf("round trip not stable:\n%s\n%s", doc, doc2)
	}
}

func TestDurationForms(t *testing.T) {
	// Integer nanoseconds and duration strings are interchangeable.
	s, err := Parse([]byte(`{"channels":{"A":{"steps":[{"start": 5000000, "ber": 1e-5}]}}}`))
	if err != nil {
		t.Fatalf("Parse(ns): %v", err)
	}
	if got := s.Channels["A"].Steps[0].Start.Std(); got != 5*time.Millisecond {
		t.Errorf("integer duration = %v, want 5ms", got)
	}
}

func TestLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scn.json")
	if err := os.WriteFile(path, []byte(fullDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("Load(missing) succeeded")
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		doc  string
		want error
	}{
		{"malformed json", `{"channels":`, ErrParse},
		{"unknown field", `{"chanels": {}}`, ErrParse},
		{"trailing data", `{"name": "x"} {"name": "y"}`, ErrParse},
		{"unknown channel", `{"channels": {"C": {"baseBER": 1e-7}}}`, ErrInvalid},
		{"null channel", `{"channels": {"A": null}}`, ErrInvalid},
		{"bad base BER", `{"channels": {"A": {"baseBER": 1.5}}}`, ErrInvalid},
		{"negative step start", `{"channels": {"A": {"steps": [{"start": -1, "ber": 1e-5}]}}}`, ErrInvalid},
		{"empty step window", `{"channels": {"A": {"steps": [{"start": "10ms", "end": "10ms", "ber": 1e-5}]}}}`, ErrInvalid},
		{"overlapping steps", `{"channels": {"A": {"steps": [
			{"start": "10ms", "end": "30ms", "ber": 1e-5},
			{"start": "20ms", "end": "40ms", "ber": 1e-4}]}}}`, ErrInvalid},
		{"step overlaps open step", `{"channels": {"A": {"steps": [
			{"start": "10ms", "ber": 1e-5},
			{"start": "20ms", "end": "40ms", "ber": 1e-4}]}}}`, ErrInvalid},
		{"ramp without end", `{"channels": {"A": {"ramps": [{"start": "10ms", "from": 1e-7, "to": 1e-5}]}}}`, ErrInvalid},
		{"ramp overlaps step", `{"channels": {"A": {
			"steps": [{"start": "10ms", "end": "30ms", "ber": 1e-5}],
			"ramps": [{"start": "20ms", "end": "40ms", "from": 1e-7, "to": 1e-5}]}}}`, ErrInvalid},
		{"burst bad probability", `{"channels": {"A": {"bursts": [
			{"start": "10ms", "end": "20ms", "berGood": 1e-7, "berBad": 1e-3,
			 "pGoodToBad": 2, "pBadToGood": 0.4}]}}}`, ErrInvalid},
		{"overlapping blackouts", `{"channels": {"A": {"blackouts": [
			{"start": "10ms", "end": "30ms"}, {"start": "20ms", "end": "40ms"}]}}}`, ErrInvalid},
		{"negative node", `{"nodes": [{"node": -1, "failAt": "10ms"}]}`, ErrInvalid},
		{"negative failAt", `{"nodes": [{"node": 1, "failAt": -5}]}`, ErrInvalid},
		{"recover before fail", `{"nodes": [{"node": 1, "failAt": "20ms", "recoverAt": "10ms"}]}`, ErrInvalid},
		{"overlapping node windows", `{"nodes": [
			{"node": 1, "failAt": "10ms", "recoverAt": "30ms"},
			{"node": 1, "failAt": "20ms", "recoverAt": "40ms"}]}`, ErrInvalid},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse([]byte(tt.doc))
			if !errors.Is(err, tt.want) {
				t.Fatalf("Parse = %v, want %v", err, tt.want)
			}
		})
	}
}

// TestValidateRejectsNaN builds NaN rates in Go, since JSON cannot
// carry NaN: a NaN passes a range check written as x < 0 || x >= 1.
func TestValidateRejectsNaN(t *testing.T) {
	nan := math.NaN()
	burst := func(ber, p float64) *Channel {
		return &Channel{Bursts: []Burst{{
			Start: Duration(10 * time.Millisecond), End: Duration(20 * time.Millisecond),
			BERBad: ber, PGoodToBad: p,
		}}}
	}
	for _, tc := range []struct {
		name string
		ch   *Channel
	}{
		{"base BER", &Channel{BaseBER: nan}},
		{"step BER", &Channel{Steps: []Step{{Start: Duration(time.Millisecond), BER: nan}}}},
		{"burst BER", burst(nan, 0.1)},
		{"burst probability", burst(1e-3, nan)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &Scenario{Channels: map[string]*Channel{"A": tc.ch}}
			if err := s.Validate(); !errors.Is(err, ErrInvalid) {
				t.Fatalf("Validate = %v, want ErrInvalid", err)
			}
		})
	}
}

func TestCompileWindows(t *testing.T) {
	s, err := Parse([]byte(fullDoc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rt, err := s.Compile(testConfig(), 1)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if rt.Name() != "kitchen-sink" {
		t.Errorf("Name = %q", rt.Name())
	}
	if rt.Injector(frame.ChannelA) == nil || rt.Injector(frame.ChannelB) == nil {
		t.Fatal("scripted channels missing injectors")
	}
	// Blackout [32ms, 35ms) on A only; macrotick = 1µs.
	for _, tt := range []struct {
		at   timebase.Macrotick
		want bool
	}{{31_999, false}, {32_000, true}, {34_999, true}, {35_000, false}} {
		if got := rt.BlackedOut(frame.ChannelA, tt.at); got != tt.want {
			t.Errorf("BlackedOut(A, %d) = %v, want %v", tt.at, got, tt.want)
		}
	}
	if rt.BlackedOut(frame.ChannelB, 33_000) {
		t.Error("channel B blacked out without a window")
	}
	// Node 2 down [20ms, 50ms); node 3 down from 60ms forever.
	if got := rt.NodeIDs(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("NodeIDs = %v, want [2 3]", got)
	}
	for _, tt := range []struct {
		node int
		at   timebase.Macrotick
		want bool
	}{
		{2, 19_999, false}, {2, 20_000, true}, {2, 49_999, true}, {2, 50_000, false},
		{3, 59_999, false}, {3, 60_000, true}, {3, 1 << 40, true},
	} {
		if got := rt.NodeDown(tt.node, tt.at); got != tt.want {
			t.Errorf("NodeDown(%d, %d) = %v, want %v", tt.node, tt.at, got, tt.want)
		}
	}
}

// Identical seed + scenario must yield an identical injected fault stream.
func TestCompileDeterministic(t *testing.T) {
	compile := func() []bool {
		s, err := Parse([]byte(fullDoc))
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		rt, err := s.Compile(testConfig(), 99)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		inj := rt.Injector(frame.ChannelA)
		tv := inj.(interface {
			CorruptsAt(bits int, at timebase.Macrotick) bool
		})
		var outcomes []bool
		for at := timebase.Macrotick(0); at < 60_000; at += 37 {
			outcomes = append(outcomes, tv.CorruptsAt(500, at))
		}
		return outcomes
	}
	a, b := compile(), compile()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed+scenario diverged at draw %d", i)
		}
	}
}
