package scenario

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/timebase"
)

const timingDoc = `{
  "name": "timing-faults",
  "channels": {"A": {"baseBER": 1e-7}},
  "timing": {
    "driftSteps": [
      {"node": 2, "at": "20ms", "ppm": 1500},
      {"node": 2, "at": "40ms", "ppm": 100}
    ],
    "syncLoss": [{"node": 0, "start": "30ms", "end": "60ms"}],
    "babble":   [{"node": 1, "start": "40ms"}]
  }
}`

func timingConfig() timebase.Config {
	return timebase.Config{
		MacrotickDuration: time.Microsecond,
		MacroPerCycle:     1000,
		StaticSlots:       10,
		StaticSlotLen:     50,
		Minislots:         40,
		MinislotLen:       5,
	}
}

func TestParseTimingFaults(t *testing.T) {
	s, err := Parse([]byte(timingDoc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Timing == nil || len(s.Timing.DriftSteps) != 2 ||
		len(s.Timing.SyncLoss) != 1 || len(s.Timing.Babble) != 1 {
		t.Fatalf("timing section parsed wrong: %+v", s.Timing)
	}
}

func TestCompileTimingFaults(t *testing.T) {
	s, err := Parse([]byte(timingDoc))
	if err != nil {
		t.Fatal(err)
	}
	cfg := timingConfig()
	rt, err := s.Compile(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rt.HasTimingFaults() {
		t.Fatal("HasTimingFaults must be true")
	}

	// Drift steps: absolute override, latest step wins.
	ms := func(d time.Duration) timebase.Macrotick { return cfg.FromDuration(d) }
	if _, ok := rt.DriftPPM(2, ms(10*time.Millisecond)); ok {
		t.Fatal("no drift step before 20ms")
	}
	if ppm, ok := rt.DriftPPM(2, ms(25*time.Millisecond)); !ok || ppm != 1500 {
		t.Fatalf("drift at 25ms = %v,%v, want 1500,true", ppm, ok)
	}
	if ppm, ok := rt.DriftPPM(2, ms(50*time.Millisecond)); !ok || ppm != 100 {
		t.Fatalf("drift at 50ms = %v,%v, want 100,true", ppm, ok)
	}
	if _, ok := rt.DriftPPM(3, ms(time.Hour)); ok {
		t.Fatal("node without drift steps must report none")
	}

	// Sync-loss window [30ms, 60ms).
	if rt.SyncSuppressed(0, ms(29*time.Millisecond)) {
		t.Fatal("sync suppressed before window")
	}
	if !rt.SyncSuppressed(0, ms(45*time.Millisecond)) {
		t.Fatal("sync not suppressed inside window")
	}
	if rt.SyncSuppressed(0, ms(60*time.Millisecond)) {
		t.Fatal("sync suppressed at half-open end")
	}

	// Babble window open-ended from 40ms.
	if rt.Babbling(1, ms(39*time.Millisecond)) {
		t.Fatal("babbling before window")
	}
	if !rt.Babbling(1, ms(10*time.Hour)) {
		t.Fatal("open-ended babble must hold forever")
	}
	if got := rt.Babblers(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Babblers = %v, want [1]", got)
	}
}

func TestCompileNoTimingFaults(t *testing.T) {
	s, err := Parse([]byte(`{"channels": {"A": {"baseBER": 1e-7}}}`))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := s.Compile(timingConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rt.HasTimingFaults() {
		t.Fatal("HasTimingFaults must be false without a timing section")
	}
}

func TestValidateTimingRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{
			"negative drift node",
			`{"timing": {"driftSteps": [{"node": -1, "at": "1ms", "ppm": 100}]}}`,
			"negative",
		},
		{
			"non-finite ppm",
			`{"timing": {"driftSteps": [{"node": 0, "at": "1ms", "ppm": 1e999}]}}`,
			"",
		},
		{
			"ppm 1e7",
			`{"timing": {"driftSteps": [{"node": 0, "at": "1ms", "ppm": 1e7}]}}`,
			"beyond",
		},
		{
			"ppm -1e7",
			`{"timing": {"driftSteps": [{"node": 0, "at": "1ms", "ppm": -1e7}]}}`,
			"beyond",
		},
		{
			"ppm 1e20",
			`{"timing": {"driftSteps": [{"node": 0, "at": "1ms", "ppm": 1e20}]}}`,
			"beyond",
		},
		{
			"ppm 1e300",
			`{"timing": {"driftSteps": [{"node": 0, "at": "1ms", "ppm": 1e300}]}}`,
			"beyond",
		},
		{
			"overlapping babble windows",
			`{"timing": {"babble": [
				{"node": 1, "start": "10ms", "end": "30ms"},
				{"node": 1, "start": "20ms", "end": "40ms"}]}}`,
			"overlap",
		},
		{
			"empty sync-loss window",
			`{"timing": {"syncLoss": [{"node": 0, "start": "10ms", "end": "10ms"}]}}`,
			"",
		},
		{
			"unknown timing field",
			`{"timing": {"babbleX": []}}`,
			"",
		},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.doc))
		if err == nil {
			t.Fatalf("%s: want error", tc.name)
		}
		if !errors.Is(err, ErrInvalid) && !errors.Is(err, ErrParse) {
			t.Fatalf("%s: error %q is neither ErrInvalid nor ErrParse", tc.name, err)
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	for _, ppm := range []string{"1e6", "-1e6"} {
		doc := `{"timing": {"driftSteps": [{"node": 0, "at": "1ms", "ppm": ` + ppm + `}]}}`
		if _, err := Parse([]byte(doc)); err != nil {
			t.Fatalf("ppm %s: %v, want the drift bound accepted", ppm, err)
		}
	}
}

func TestTimingWindowsOnDifferentNodesMayOverlap(t *testing.T) {
	doc := `{"timing": {"babble": [
		{"node": 1, "start": "10ms", "end": "30ms"},
		{"node": 2, "start": "20ms", "end": "40ms"}]}}`
	if _, err := Parse([]byte(doc)); err != nil {
		t.Fatalf("different-node overlap must be legal: %v", err)
	}
}
