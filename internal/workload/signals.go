package workload

import (
	"fmt"
	"time"

	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/signal"
)

// SignalLevelOptions parameterizes the signal-level synthetic generator,
// which models what the paper's introduction describes — ECUs exchanging
// thousands of small signals ("70 ECUs ... exchange around 2500 signals") —
// and packs them into frames with the first-fit-decreasing packer.
type SignalLevelOptions struct {
	// Signals is the number of raw signals to generate.
	Signals int
	// Nodes is the number of producing ECUs (NodeCount when zero;
	// negative is an error).
	Nodes int
	// Seed makes generation reproducible.
	Seed uint64
	// FirstID is the first frame ID for the packed messages, checked and
	// defaulted by signal.Pack.
	FirstID int
	// MaxPayloadBits caps the packed frame payload, checked and defaulted
	// (to the FlexRay maximum) by signal.Pack.
	MaxPayloadBits int
}

// SyntheticSignals generates raw periodic signals across the ECUs (sizes
// 8-128 bits, periods from the paper's 5-50 ms range) and packs them into a
// validated static message set.  It returns the packed set along with the
// raw signal count per message for inspection.
func SyntheticSignals(opts SignalLevelOptions) (signal.Set, error) {
	if opts.Signals <= 0 {
		return signal.Set{}, fmt.Errorf("workload: signal count %d", opts.Signals)
	}
	if opts.Nodes < 0 {
		return signal.Set{}, fmt.Errorf("workload: negative signal-level Nodes %d", opts.Nodes)
	}
	if opts.Nodes == 0 {
		opts.Nodes = NodeCount
	}
	rng := fault.NewRNG(opts.Seed ^ 0x51C0A15)
	periods := []time.Duration{
		5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond,
		25 * time.Millisecond, 40 * time.Millisecond, 50 * time.Millisecond,
	}
	signals := make([]signal.Signal, opts.Signals)
	for i := range signals {
		period := periods[rng.Intn(len(periods))]
		bits := 8 * (1 + rng.Intn(16)) // 8..128 bits
		signals[i] = signal.Signal{
			Name:     fmt.Sprintf("sig-%04d", i),
			Node:     i % opts.Nodes,
			Kind:     signal.Periodic,
			Period:   period,
			Offset:   0,
			Deadline: period,
			Bits:     bits,
		}
	}
	msgs, err := signal.Pack(signals, signal.PackOptions{
		MaxPayloadBits: opts.MaxPayloadBits,
		FirstID:        opts.FirstID,
	})
	if err != nil {
		return signal.Set{}, err
	}
	set := signal.Set{
		Name:     fmt.Sprintf("signals-%d", opts.Signals),
		Messages: msgs,
	}
	if err := set.Validate(); err != nil {
		return signal.Set{}, err
	}
	return set, nil
}
