// Package signal models the application-level communication units of a
// FlexRay cluster: signals generated by ECUs, and messages (frames' payloads)
// into which signals are packed for transmission.
//
// Following the paper, every signal s_j^i of ECU E_i has four attributes: a
// period P_j^i, an offset O_j^i, a deadline D_j^i, and a length W_j^i in
// bits.  Aperiodic (event-triggered) signals have Period == 0 and are
// delivered through the dynamic segment.
package signal

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/flexray-go/coefficient/internal/frame"
)

// Common validation errors.
var (
	// ErrBadLength is returned for signals or messages with a non-positive
	// bit length.
	ErrBadLength = errors.New("signal: length must be positive")
	// ErrBadPeriod is returned for periodic signals with a negative period.
	ErrBadPeriod = errors.New("signal: period must be non-negative")
	// ErrBadDeadline is returned when a deadline is non-positive or, for a
	// periodic signal, exceeds the period.
	ErrBadDeadline = errors.New("signal: invalid deadline")
	// ErrBadOffset is returned when an offset is negative or not smaller
	// than the period.
	ErrBadOffset = errors.New("signal: invalid offset")
	// ErrPayloadOverflow is returned when packing signals that exceed the
	// maximum frame payload.
	ErrPayloadOverflow = errors.New("signal: signals exceed frame payload capacity")
)

// Kind distinguishes time-triggered from event-triggered traffic.
type Kind int

// Signal kinds.
const (
	// Periodic signals are produced at a fixed rate and transmitted in the
	// static segment.
	Periodic Kind = iota + 1
	// Aperiodic signals are event-triggered and transmitted in the dynamic
	// segment.
	Aperiodic
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Periodic:
		return "periodic"
	case Aperiodic:
		return "aperiodic"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Signal is one elementary communication unit produced by an ECU.
type Signal struct {
	// Name identifies the signal for tracing; it need not be unique.
	Name string `json:"name"`
	// Node is the index of the producing ECU.
	Node int `json:"node"`
	// Kind says whether the signal is periodic or aperiodic.
	Kind Kind `json:"kind"`
	// Period is the production period (zero for aperiodic signals).
	Period time.Duration `json:"periodNs"`
	// Offset is the release time of the first instance.
	Offset time.Duration `json:"offsetNs"`
	// Deadline is the relative deadline of each instance.
	Deadline time.Duration `json:"deadlineNs"`
	// Bits is the signal length in bits.
	Bits int `json:"bits"`
}

// Validate checks the signal attributes for consistency.
func (s Signal) Validate() error {
	if s.Bits <= 0 {
		return fmt.Errorf("%w: signal %q has %d bits", ErrBadLength, s.Name, s.Bits)
	}
	if s.Deadline <= 0 {
		return fmt.Errorf("%w: signal %q deadline %v", ErrBadDeadline, s.Name, s.Deadline)
	}
	switch s.Kind {
	case Periodic:
		if s.Period <= 0 {
			return fmt.Errorf("%w: periodic signal %q period %v", ErrBadPeriod, s.Name, s.Period)
		}
		if s.Deadline > s.Period {
			return fmt.Errorf("%w: signal %q deadline %v > period %v",
				ErrBadDeadline, s.Name, s.Deadline, s.Period)
		}
		if s.Offset < 0 || s.Offset >= s.Period {
			return fmt.Errorf("%w: signal %q offset %v, period %v",
				ErrBadOffset, s.Name, s.Offset, s.Period)
		}
	case Aperiodic:
		if s.Period != 0 {
			return fmt.Errorf("%w: aperiodic signal %q has period %v",
				ErrBadPeriod, s.Name, s.Period)
		}
		if s.Offset < 0 {
			return fmt.Errorf("%w: signal %q offset %v", ErrBadOffset, s.Name, s.Offset)
		}
	default:
		return fmt.Errorf("signal: %q has unknown kind %d", s.Name, int(s.Kind))
	}
	return nil
}

// Message is a frame payload: one or more signals packed together and
// transmitted as a unit.  A message inherits the most constraining timing
// attributes of its signals.
type Message struct {
	// ID is the FlexRay frame ID the message is transmitted under.  Static
	// messages use IDs 1..gNumberOfStaticSlots; dynamic messages use IDs
	// above the static range.
	ID int `json:"id"`
	// Name identifies the message for tracing.
	Name string `json:"name"`
	// Node is the producing ECU index.
	Node int `json:"node"`
	// Kind mirrors the kind of the packed signals.
	Kind Kind `json:"kind"`
	// Period, Offset, Deadline are the message-level timing attributes.
	Period   time.Duration `json:"periodNs"`
	Offset   time.Duration `json:"offsetNs"`
	Deadline time.Duration `json:"deadlineNs"`
	// Bits is the total payload length in bits.
	Bits int `json:"bits"`
	// Signals lists the packed signals (may be empty for synthetic
	// messages defined directly at the message level).
	Signals []Signal `json:"signals,omitempty"`
	// Priority orders dynamic messages in their node's priority queue;
	// lower value means higher priority.  Ignored for static messages.
	Priority int `json:"priority,omitempty"`
}

// Validate checks the message attributes, including that the message fits
// a FlexRay frame: an 11-bit frame ID and at most DefaultMaxPayloadBits of
// payload.
func (m Message) Validate() error {
	if m.Bits <= 0 {
		return fmt.Errorf("%w: message %q has %d bits", ErrBadLength, m.Name, m.Bits)
	}
	if m.Bits > DefaultMaxPayloadBits {
		return fmt.Errorf("%w: message %q has %d bits, capacity %d",
			ErrPayloadOverflow, m.Name, m.Bits, DefaultMaxPayloadBits)
	}
	if m.Deadline <= 0 {
		return fmt.Errorf("%w: message %q deadline %v", ErrBadDeadline, m.Name, m.Deadline)
	}
	if m.ID <= 0 || m.ID > frame.MaxFrameID {
		return fmt.Errorf("signal: message %q has frame ID %d outside 1..%d",
			m.Name, m.ID, frame.MaxFrameID)
	}
	switch m.Kind {
	case Periodic:
		if m.Period <= 0 {
			return fmt.Errorf("%w: periodic message %q period %v", ErrBadPeriod, m.Name, m.Period)
		}
		if m.Deadline > m.Period {
			return fmt.Errorf("%w: message %q deadline %v > period %v",
				ErrBadDeadline, m.Name, m.Deadline, m.Period)
		}
		if m.Offset < 0 || m.Offset >= m.Period {
			return fmt.Errorf("%w: message %q offset %v, period %v",
				ErrBadOffset, m.Name, m.Offset, m.Period)
		}
	case Aperiodic:
		if m.Period < 0 {
			return fmt.Errorf("%w: message %q period %v", ErrBadPeriod, m.Name, m.Period)
		}
	default:
		return fmt.Errorf("signal: message %q has unknown kind %d", m.Name, int(m.Kind))
	}
	for _, s := range m.Signals {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("message %q: %w", m.Name, err)
		}
	}
	return nil
}

// Bytes returns the payload size in whole bytes (rounded up).
func (m Message) Bytes() int {
	return (m.Bits + 7) / 8
}

// Set is a validated collection of messages forming one workload.
type Set struct {
	// Name labels the workload (e.g. "BBW", "ACC", "synthetic-40").
	Name string `json:"name"`
	// Messages holds all messages, static and dynamic.
	Messages []Message `json:"messages"`
}

// Validate checks every message and cross-message invariants: frame IDs of
// static messages must be unique (a static slot belongs to one message), and
// (node, ID) pairs must be unique for dynamic messages.
func (s Set) Validate() error {
	staticIDs := make(map[int]string)
	dynIDs := make(map[int]string)
	for _, m := range s.Messages {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("set %q: %w", s.Name, err)
		}
		switch m.Kind {
		case Periodic:
			if prev, dup := staticIDs[m.ID]; dup {
				return fmt.Errorf("set %q: static frame ID %d used by both %q and %q",
					s.Name, m.ID, prev, m.Name)
			}
			staticIDs[m.ID] = m.Name
		case Aperiodic:
			if prev, dup := dynIDs[m.ID]; dup {
				return fmt.Errorf("set %q: dynamic frame ID %d used by both %q and %q",
					s.Name, m.ID, prev, m.Name)
			}
			dynIDs[m.ID] = m.Name
		}
	}
	return nil
}

// Static returns the periodic messages of the set, sorted by frame ID.
func (s Set) Static() []Message {
	return s.filter(Periodic)
}

// Dynamic returns the aperiodic messages of the set, sorted by frame ID.
func (s Set) Dynamic() []Message {
	return s.filter(Aperiodic)
}

func (s Set) filter(k Kind) []Message {
	var out []Message
	for _, m := range s.Messages {
		if m.Kind == k {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TotalBits returns the summed payload size of all messages in bits.
func (s Set) TotalBits() int {
	total := 0
	for _, m := range s.Messages {
		total += m.Bits
	}
	return total
}

// Nodes returns the number of distinct producing nodes referenced by the set.
func (s Set) Nodes() int {
	seen := make(map[int]struct{})
	for _, m := range s.Messages {
		seen[m.Node] = struct{}{}
	}
	return len(seen)
}
