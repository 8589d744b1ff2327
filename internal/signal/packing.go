package signal

import (
	"fmt"
	"sort"
	"time"
)

// PackOptions controls frame packing.
type PackOptions struct {
	// MaxPayloadBits is the frame payload capacity in bits, at most the
	// FlexRay v2.1 maximum payload of 254 bytes = 2032 bits (the default
	// when zero).
	MaxPayloadBits int
	// FirstID is the frame ID assigned to the first produced message
	// (1 when zero); subsequent messages get consecutive IDs.
	FirstID int
}

// DefaultMaxPayloadBits is the FlexRay v2.1 maximum frame payload (254 bytes).
const DefaultMaxPayloadBits = 254 * 8

// Pack groups signals into messages using first-fit-decreasing bin packing.
//
// Signals are only packed together when they come from the same node, have
// the same kind, the same period, and compatible offsets (the minimum offset
// of the group is used).  The packed message takes the minimum deadline of
// its signals, so packing never relaxes a timing constraint.  Signals wider
// than the payload capacity are rejected, as are negative options and a
// capacity above the FlexRay maximum.
func Pack(signals []Signal, opts PackOptions) ([]Message, error) {
	switch {
	case opts.MaxPayloadBits < 0 || opts.MaxPayloadBits > DefaultMaxPayloadBits:
		return nil, fmt.Errorf("signal: MaxPayloadBits %d outside 0..%d",
			opts.MaxPayloadBits, DefaultMaxPayloadBits)
	case opts.FirstID < 0:
		return nil, fmt.Errorf("signal: negative FirstID %d", opts.FirstID)
	}
	if opts.MaxPayloadBits == 0 {
		opts.MaxPayloadBits = DefaultMaxPayloadBits
	}
	if opts.FirstID == 0 {
		opts.FirstID = 1
	}
	for _, s := range signals {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if s.Bits > opts.MaxPayloadBits {
			return nil, fmt.Errorf("%w: signal %q is %d bits, capacity %d",
				ErrPayloadOverflow, s.Name, s.Bits, opts.MaxPayloadBits)
		}
	}

	// Group by (node, kind, period) — the compatibility class for packing.
	type groupKey struct {
		node   int
		kind   Kind
		period time.Duration
	}
	groups := make(map[groupKey][]Signal)
	var keys []groupKey
	for _, s := range signals {
		k := groupKey{node: s.Node, kind: s.Kind, period: s.Period}
		if _, seen := groups[k]; !seen {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], s)
	}
	// Deterministic group order: by node, kind, period.
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.node != b.node {
			return a.node < b.node
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.period < b.period
	})

	var out []Message
	nextID := opts.FirstID
	for _, k := range keys {
		group := groups[k]
		// First-fit decreasing: sort by size descending (stable on name
		// for determinism).
		sort.SliceStable(group, func(i, j int) bool { return group[i].Bits > group[j].Bits })

		var bins [][]Signal
		binBits := make([]int, 0)
		for _, s := range group {
			placed := false
			for bi := range bins {
				if binBits[bi]+s.Bits <= opts.MaxPayloadBits {
					bins[bi] = append(bins[bi], s)
					binBits[bi] += s.Bits
					placed = true
					break
				}
			}
			if !placed {
				bins = append(bins, []Signal{s})
				binBits = append(binBits, s.Bits)
			}
		}

		for bi, bin := range bins {
			msg := Message{
				ID:       nextID,
				Name:     fmt.Sprintf("n%d-%s-p%v-f%d", k.node, k.kind, k.period, bi),
				Node:     k.node,
				Kind:     k.kind,
				Period:   k.period,
				Offset:   bin[0].Offset,
				Deadline: bin[0].Deadline,
				Bits:     0,
				Signals:  append([]Signal(nil), bin...),
			}
			for _, s := range bin {
				msg.Bits += s.Bits
				if s.Deadline < msg.Deadline {
					msg.Deadline = s.Deadline
				}
				if s.Offset < msg.Offset {
					msg.Offset = s.Offset
				}
			}
			nextID++
			out = append(out, msg)
		}
	}
	return out, nil
}
