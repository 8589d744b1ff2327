// Package scenario defines deterministic, scriptable fault timelines for
// the simulator: per-channel BER steps and ramps, Gilbert–Elliott burst
// episodes, channel blackouts, and node crash/recovery events.  A scenario
// is parsed from a small JSON DSL, validated, and compiled against a
// cluster timing configuration into a macrotick-aligned Runtime the engine
// consults every cycle and transmission.  Identical seed + scenario yields
// identical traces.
//
// The DSL (all times are Go duration strings like "20ms", or integer
// nanoseconds):
//
//	{
//	  "name": "ber-step-plus-blackout",
//	  "channels": {
//	    "A": {
//	      "baseBER": 1e-7,
//	      "steps":  [{"start": "40ms", "ber": 1e-4}],
//	      "ramps":  [{"start": "10ms", "end": "20ms", "from": 1e-7, "to": 1e-5}],
//	      "bursts": [{"start": "25ms", "end": "30ms",
//	                  "berGood": 1e-7, "berBad": 1e-3,
//	                  "pGoodToBad": 0.2, "pBadToGood": 0.4}],
//	      "blackouts": [{"start": "60ms", "end": "80ms"}]
//	    },
//	    "B": {"baseBER": 1e-7}
//	  },
//	  "nodes": [{"node": 2, "failAt": "20ms", "recoverAt": "50ms"}],
//	  "timing": {
//	    "driftSteps": [{"node": 2, "at": "20ms", "ppm": 1500}],
//	    "syncLoss":   [{"node": 0, "start": "30ms", "end": "60ms"}],
//	    "babble":     [{"node": 1, "start": "40ms", "end": "70ms"}]
//	  }
//	}
//
// A step without "end" holds until the end of the run; a node event
// without "recoverAt" is a permanent crash; a timing window without "end"
// holds until the end of the run.  Timing faults require the run to model
// local clocks (sim.Options.Timing): a drift step re-rates one node's
// oscillator from "at" onwards, sync-loss windows suppress the node's sync
// frames (its deviations disappear from everyone's FTM input), and babble
// windows turn the node into a babbling idiot that drives every static
// slot — contained by bus guardians when enabled.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// Errors returned by the parser and validator.
var (
	// ErrParse is returned for malformed scenario documents.
	ErrParse = errors.New("scenario: parse error")
	// ErrInvalid is returned for well-formed documents that violate the
	// DSL's semantic rules (negative times, overlapping windows, ...).
	ErrInvalid = errors.New("scenario: invalid")
)

// Duration is a time.Duration that unmarshals from either a Go duration
// string ("20ms") or an integer nanosecond count.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return err
	}
	*d = Duration(ns)
	return nil
}

// MarshalJSON implements json.Marshaler (duration-string form).
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Std returns the value as a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Scenario is one parsed fault timeline.
type Scenario struct {
	// Name labels the scenario in reports and traces.
	Name string `json:"name,omitempty"`
	// Channels maps "A"/"B" to the channel's fault timeline.  A channel
	// with an entry gets a scenario-driven injector; absent channels keep
	// whatever injector the run options provide.
	Channels map[string]*Channel `json:"channels,omitempty"`
	// Nodes lists crash/recovery events.
	Nodes []NodeEvent `json:"nodes,omitempty"`
	// Timing lists node-level timing-fault events.
	Timing *TimingFaults `json:"timing,omitempty"`
}

// TimingFaults scripts node-level timing misbehavior.
type TimingFaults struct {
	// DriftSteps re-rate a node's oscillator at a point in time.
	DriftSteps []DriftStep `json:"driftSteps,omitempty"`
	// SyncLoss windows suppress a node's sync frames.
	SyncLoss []NodeWindow `json:"syncLoss,omitempty"`
	// Babble windows turn a node into a babbling idiot.
	Babble []NodeWindow `json:"babble,omitempty"`
}

// DriftStep sets a node's oscillator error to PPM (parts per million,
// absolute — not a delta) from At onwards.
type DriftStep struct {
	Node int      `json:"node"`
	At   Duration `json:"at"`
	PPM  float64  `json:"ppm"`
}

// NodeWindow is a per-node half-open time window [Start, End).  A zero End
// holds the window until the end of the run.
type NodeWindow struct {
	Node  int      `json:"node"`
	Start Duration `json:"start"`
	End   Duration `json:"end,omitempty"`
}

// Channel is the fault timeline of one channel.
type Channel struct {
	// BaseBER is the bit error rate outside every step/ramp/burst window.
	BaseBER float64 `json:"baseBER,omitempty"`
	// Steps switch the BER to a fixed value within their window.
	Steps []Step `json:"steps,omitempty"`
	// Ramps sweep the BER linearly across their window.
	Ramps []Ramp `json:"ramps,omitempty"`
	// Bursts run a Gilbert–Elliott two-state model within their window.
	Bursts []Burst `json:"bursts,omitempty"`
	// Blackouts silence the channel entirely within their window: every
	// transmission on it is lost.
	Blackouts []Window `json:"blackouts,omitempty"`
}

// Step is a BER step window.  A zero End holds the step until the end of
// the run.
type Step struct {
	Start Duration `json:"start"`
	End   Duration `json:"end,omitempty"`
	BER   float64  `json:"ber"`
}

// Ramp sweeps the BER linearly from From at Start to To at End.
type Ramp struct {
	Start Duration `json:"start"`
	End   Duration `json:"end"`
	From  float64  `json:"from"`
	To    float64  `json:"to"`
}

// Burst is one Gilbert–Elliott episode.
type Burst struct {
	Start      Duration `json:"start"`
	End        Duration `json:"end"`
	BERGood    float64  `json:"berGood"`
	BERBad     float64  `json:"berBad"`
	PGoodToBad float64  `json:"pGoodToBad"`
	PBadToGood float64  `json:"pBadToGood"`
}

// Window is a half-open time window [Start, End).
type Window struct {
	Start Duration `json:"start"`
	End   Duration `json:"end"`
}

// NodeEvent is one crash (and optional recovery) of a node.  A zero
// RecoverAt means the crash is permanent.
type NodeEvent struct {
	Node      int      `json:"node"`
	FailAt    Duration `json:"failAt"`
	RecoverAt Duration `json:"recoverAt,omitempty"`
}

// Parse decodes and validates a scenario document.  Unknown fields are
// rejected so typos in scenario files surface as errors instead of being
// silently ignored.
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	// Reject trailing garbage after the document.
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after scenario document", ErrParse)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// span is a validated half-open window in nanoseconds; end < 0 means open.
type span struct {
	start, end time.Duration
}

func (s span) openEnded() bool { return s.end < 0 }

func (s span) overlaps(o span) bool {
	if s.openEnded() {
		return o.openEnded() || o.end > s.start
	}
	if o.openEnded() {
		return s.end > o.start
	}
	return s.start < o.end && o.start < s.end
}

func checkSpan(what string, start, end Duration, open bool) (span, error) {
	if start < 0 {
		return span{}, fmt.Errorf("%w: %s start %v negative", ErrInvalid, what, start.Std())
	}
	if end == 0 && open {
		return span{start: start.Std(), end: -1}, nil
	}
	if end <= start {
		return span{}, fmt.Errorf("%w: %s window [%v, %v) empty", ErrInvalid, what, start.Std(), end.Std())
	}
	return span{start: start.Std(), end: end.Std()}, nil
}

// checkBER and checkProb negate their range tests so NaN fails them too.
func checkBER(what string, ber float64) error {
	if !(ber >= 0 && ber < 1) {
		return fmt.Errorf("%w: %s BER %g outside [0, 1)", ErrInvalid, what, ber)
	}
	return nil
}

func checkProb(what string, p float64) error {
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("%w: %s probability %g outside [0, 1]", ErrInvalid, what, p)
	}
	return nil
}

func checkNoOverlap(what string, spans []span) error {
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].overlaps(sorted[i]) {
			return fmt.Errorf("%w: overlapping %s windows at %v and %v",
				ErrInvalid, what, sorted[i-1].start, sorted[i].start)
		}
	}
	return nil
}

// Validate checks the scenario's semantic rules: channel keys are "A" or
// "B"; all times are non-negative; every bounded window is non-empty; BER
// windows (steps and ramps) of one channel do not overlap each other, nor
// do blackouts or bursts; node events are ordered fail-then-recover and do
// not overlap per node.
// Iteration follows sorted key order so that, with several invalid
// entries, the same one is reported every run — map order would make the
// returned error nondeterministic.
func (s *Scenario) Validate() error {
	for _, key := range sortedChannelKeys(s.Channels) {
		ch := s.Channels[key]
		if key != "A" && key != "B" {
			return fmt.Errorf("%w: unknown channel %q (want \"A\" or \"B\")", ErrInvalid, key)
		}
		if ch == nil {
			return fmt.Errorf("%w: channel %q is null", ErrInvalid, key)
		}
		if err := ch.validate(key); err != nil {
			return err
		}
	}
	if err := s.validateNodes(); err != nil {
		return err
	}
	return s.validateTiming()
}

func (s *Scenario) validateTiming() error {
	if s.Timing == nil {
		return nil
	}
	for _, st := range s.Timing.DriftSteps {
		if st.Node < 0 {
			return fmt.Errorf("%w: drift step node %d negative", ErrInvalid, st.Node)
		}
		if st.At < 0 {
			return fmt.Errorf("%w: drift step at %v negative", ErrInvalid, st.At.Std())
		}
		if math.IsNaN(st.PPM) || math.IsInf(st.PPM, 0) {
			return fmt.Errorf("%w: drift step ppm %v not finite", ErrInvalid, st.PPM)
		}
	}
	for _, group := range []struct {
		what    string
		windows []NodeWindow
	}{
		{"sync-loss", s.Timing.SyncLoss},
		{"babble", s.Timing.Babble},
	} {
		perNode := make(map[int][]span)
		for _, w := range group.windows {
			if w.Node < 0 {
				return fmt.Errorf("%w: %s node %d negative", ErrInvalid, group.what, w.Node)
			}
			sp, err := checkSpan(fmt.Sprintf("node %d %s", w.Node, group.what), w.Start, w.End, true)
			if err != nil {
				return err
			}
			perNode[w.Node] = append(perNode[w.Node], sp)
		}
		for _, id := range sortedNodeKeys(perNode) {
			if err := checkNoOverlap(fmt.Sprintf("node %d %s", id, group.what), perNode[id]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (ch *Channel) validate(key string) error {
	if err := checkBER("channel "+key+" base", ch.BaseBER); err != nil {
		return err
	}
	var berSpans []span
	for _, st := range ch.Steps {
		sp, err := checkSpan("channel "+key+" step", st.Start, st.End, true)
		if err != nil {
			return err
		}
		if err := checkBER("channel "+key+" step", st.BER); err != nil {
			return err
		}
		berSpans = append(berSpans, sp)
	}
	for _, rp := range ch.Ramps {
		sp, err := checkSpan("channel "+key+" ramp", rp.Start, rp.End, false)
		if err != nil {
			return err
		}
		for _, ber := range []float64{rp.From, rp.To} {
			if err := checkBER("channel "+key+" ramp", ber); err != nil {
				return err
			}
		}
		berSpans = append(berSpans, sp)
	}
	if err := checkNoOverlap("channel "+key+" BER", berSpans); err != nil {
		return err
	}
	var burstSpans []span
	for _, b := range ch.Bursts {
		sp, err := checkSpan("channel "+key+" burst", b.Start, b.End, false)
		if err != nil {
			return err
		}
		for _, ber := range []float64{b.BERGood, b.BERBad} {
			if err := checkBER("channel "+key+" burst", ber); err != nil {
				return err
			}
		}
		for _, p := range []float64{b.PGoodToBad, b.PBadToGood} {
			if err := checkProb("channel "+key+" burst", p); err != nil {
				return err
			}
		}
		burstSpans = append(burstSpans, sp)
	}
	if err := checkNoOverlap("channel "+key+" burst", burstSpans); err != nil {
		return err
	}
	var blackSpans []span
	for _, w := range ch.Blackouts {
		sp, err := checkSpan("channel "+key+" blackout", w.Start, w.End, false)
		if err != nil {
			return err
		}
		blackSpans = append(blackSpans, sp)
	}
	return checkNoOverlap("channel "+key+" blackout", blackSpans)
}

func (s *Scenario) validateNodes() error {
	perNode := make(map[int][]span)
	for _, ev := range s.Nodes {
		if ev.Node < 0 {
			return fmt.Errorf("%w: node %d negative", ErrInvalid, ev.Node)
		}
		if ev.FailAt < 0 {
			return fmt.Errorf("%w: node %d failAt %v negative", ErrInvalid, ev.Node, ev.FailAt.Std())
		}
		sp, err := checkSpan(fmt.Sprintf("node %d down", ev.Node), ev.FailAt, ev.RecoverAt, true)
		if err != nil {
			return err
		}
		perNode[ev.Node] = append(perNode[ev.Node], sp)
	}
	for _, id := range sortedNodeKeys(perNode) {
		if err := checkNoOverlap(fmt.Sprintf("node %d down", id), perNode[id]); err != nil {
			return err
		}
	}
	return nil
}

// sortedChannelKeys returns the channel map's keys in ascending order,
// for deterministic validation and compilation order.
func sortedChannelKeys(m map[string]*Channel) []string {
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// sortedNodeKeys returns the per-node map's keys in ascending order.
func sortedNodeKeys[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
