// Package workload provides the message sets used in the paper's
// evaluation (Section IV-A):
//
//   - the Brake-By-Wire application (Table II, 20 periodic messages),
//   - the Adaptive Cruise Controller application (Table III, 20 periodic
//     messages),
//   - synthetic test cases with periods drawn from 5–50 ms and deadlines
//     from 1–20 ms,
//   - the SAE-derived aperiodic message set: 30 aperiodic messages with a
//     50 ms period and deadline, frame IDs 81–110 (80-slot configurations)
//     or 121–150 (120-slot configurations).
package workload

import (
	"fmt"
	"time"

	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/signal"
)

// NodeCount is the number of FlexRay nodes in the paper's testbed; messages
// are distributed uniformly over them.
const NodeCount = 10

// bbwRow mirrors one row of Table II / Table III.
type bbwRow struct {
	offsetUs int // offset in microseconds (table gives fractions of ms)
	periodMs int
	deadMs   int
	bits     int
}

// Table II: Brake-by-wire message parameters.
var bbwTable = []bbwRow{
	{280, 8, 8, 1292},
	{760, 8, 8, 285},
	{580, 1, 1, 1574},
	{720, 1, 1, 552},
	{870, 1, 1, 348},
	{920, 1, 1, 469},
	{340, 1, 1, 1184},
	{280, 8, 8, 875},
	{750, 8, 8, 759},
	{520, 8, 8, 932},
	{950, 8, 8, 1261},
	{620, 8, 8, 633},
	{720, 8, 8, 452},
	{850, 8, 8, 342},
	{910, 8, 8, 856},
	{470, 8, 8, 1578},
	{560, 1, 1, 1742},
	{580, 1, 1, 553},
	{920, 1, 1, 1172},
	{680, 1, 1, 878},
}

// Table III: Adaptive cruise controller message parameters.
var accTable = []bbwRow{
	{420, 16, 16, 1024},
	{620, 16, 16, 1024},
	{580, 16, 16, 1024},
	{250, 16, 16, 1024},
	{390, 16, 16, 1024},
	{480, 24, 24, 1024},
	{220, 24, 24, 1024},
	{510, 24, 24, 1024},
	{320, 24, 24, 1024},
	{470, 24, 24, 1024},
	{650, 24, 24, 1024},
	{420, 24, 24, 1024},
	{310, 32, 32, 1280},
	{560, 32, 32, 1280},
	{480, 32, 32, 1280},
	{320, 32, 32, 256},
	{660, 32, 32, 256},
	{420, 32, 32, 256},
	{260, 32, 32, 1280},
	{350, 32, 32, 256},
}

// BBW returns the Brake-By-Wire message set (paper Table II): 20 periodic
// messages with frame IDs 1..20, distributed round-robin over the 10 nodes.
func BBW() signal.Set {
	return tableSet("BBW", bbwTable)
}

// ACC returns the Adaptive Cruise Controller message set (paper Table III):
// 20 periodic messages with frame IDs 1..20.
func ACC() signal.Set {
	return tableSet("ACC", accTable)
}

func tableSet(name string, rows []bbwRow) signal.Set {
	msgs := make([]signal.Message, len(rows))
	for i, r := range rows {
		msgs[i] = signal.Message{
			ID:       i + 1,
			Name:     fmt.Sprintf("%s-%02d", name, i+1),
			Node:     i % NodeCount,
			Kind:     signal.Periodic,
			Period:   time.Duration(r.periodMs) * time.Millisecond,
			Offset:   time.Duration(r.offsetUs) * time.Microsecond,
			Deadline: time.Duration(r.deadMs) * time.Millisecond,
			Bits:     r.bits,
		}
	}
	return signal.Set{Name: name, Messages: msgs}
}

// SyntheticOptions parameterizes the synthetic static workload generator.
type SyntheticOptions struct {
	// Messages is the number of periodic messages to generate.
	Messages int
	// Seed makes generation reproducible.
	Seed uint64
	// FirstID is the frame ID of the first message (defaults to 1).
	FirstID int
	// Periods lists the candidate periods.  Defaults to harmonic-friendly
	// values within the paper's 5–50 ms range so hyperperiods stay small.
	Periods []time.Duration
}

// Synthetic draw ranges: deadlines within the paper's 1–20 ms (never
// beyond the message's period) and sizes in line with the BBW sizes.
const (
	synMinDeadline = time.Millisecond
	synMaxDeadline = 20 * time.Millisecond
	synMinBits     = 256
	synMaxBits     = 1600
)

func (o *SyntheticOptions) fill() {
	if o.FirstID <= 0 {
		o.FirstID = 1
	}
	if len(o.Periods) == 0 {
		o.Periods = []time.Duration{
			5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond,
			25 * time.Millisecond, 40 * time.Millisecond, 50 * time.Millisecond,
		}
	}
}

// Synthetic generates a reproducible random periodic message set following
// the paper's synthetic test cases: random periods from the 5–50 ms range
// and deadlines from 1–20 ms (clamped to the period).
func Synthetic(opts SyntheticOptions) (signal.Set, error) {
	if opts.Messages <= 0 {
		return signal.Set{}, fmt.Errorf("workload: synthetic message count %d", opts.Messages)
	}
	opts.fill()
	rng := fault.NewRNG(opts.Seed)
	msgs := make([]signal.Message, opts.Messages)
	for i := range msgs {
		period := opts.Periods[rng.Intn(len(opts.Periods))]
		deadline := synMinDeadline + time.Duration(rng.Intn(int(synMaxDeadline-synMinDeadline)+1))
		if deadline > period {
			deadline = period
		}
		offset := time.Duration(rng.Intn(int(deadline)))
		bits := synMinBits + rng.Intn(synMaxBits-synMinBits+1)
		msgs[i] = signal.Message{
			ID:       opts.FirstID + i,
			Name:     fmt.Sprintf("syn-%03d", opts.FirstID+i),
			Node:     i % NodeCount,
			Kind:     signal.Periodic,
			Period:   period,
			Offset:   offset,
			Deadline: deadline,
			Bits:     bits,
		}
	}
	set := signal.Set{Name: fmt.Sprintf("synthetic-%d", opts.Messages), Messages: msgs}
	if err := set.Validate(); err != nil {
		return signal.Set{}, err
	}
	return set, nil
}

// SAEAperiodicOptions parameterizes the SAE-derived dynamic message set.
type SAEAperiodicOptions struct {
	// FirstID is the first dynamic frame ID: 81 for 80-slot
	// configurations, 121 for 120-slot configurations (paper Section
	// IV-A).
	FirstID int
	// Count is the number of aperiodic messages (paper: 30).
	Count int
	// Seed makes the size draw reproducible.
	Seed uint64
}

// SAE message sizes: class C sporadic messages are short.
const (
	saeMinBits = 64
	saeMaxBits = 512
)

// SAEAperiodic returns the paper's dynamic-segment workload: Count aperiodic
// messages with consecutive frame IDs from FirstID, a 50 ms period (used as
// the mean inter-arrival time) and a 50 ms deadline, uniformly distributed
// over the 10 nodes.
func SAEAperiodic(opts SAEAperiodicOptions) (signal.Set, error) {
	if opts.Count <= 0 {
		opts.Count = 30
	}
	if opts.FirstID <= 0 {
		opts.FirstID = 81
	}
	rng := fault.NewRNG(opts.Seed)
	msgs := make([]signal.Message, opts.Count)
	for i := range msgs {
		bits := saeMinBits + rng.Intn(saeMaxBits-saeMinBits+1)
		msgs[i] = signal.Message{
			ID:       opts.FirstID + i,
			Name:     fmt.Sprintf("sae-%03d", opts.FirstID+i),
			Node:     i % NodeCount,
			Kind:     signal.Aperiodic,
			Period:   50 * time.Millisecond, // mean inter-arrival time
			Deadline: 50 * time.Millisecond,
			Bits:     bits,
			Priority: i + 1,
		}
	}
	set := signal.Set{Name: fmt.Sprintf("sae-%d", opts.FirstID), Messages: msgs}
	if err := set.Validate(); err != nil {
		return signal.Set{}, err
	}
	return set, nil
}

// Merge combines several message sets into one named workload, failing on
// frame ID collisions.
func Merge(name string, sets ...signal.Set) (signal.Set, error) {
	var msgs []signal.Message
	for _, s := range sets {
		msgs = append(msgs, s.Messages...)
	}
	out := signal.Set{Name: name, Messages: msgs}
	if err := out.Validate(); err != nil {
		return signal.Set{}, err
	}
	return out, nil
}
