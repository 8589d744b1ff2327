package experiment

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/flexray-go/coefficient/internal/runner"
)

// FrameLatencyRow is one point of Figure 4(a)'s per-frame-ID series: the
// mean latency of one static frame ID under one scheduler.
type FrameLatencyRow struct {
	// FrameID is the static frame ID (1..80 in the paper).
	FrameID int
	// Scheduler is the policy name.
	Scheduler string
	// Mean is the average delivery latency of the frame.
	Mean time.Duration
}

// FrameLatencyOptions configures the per-frame-ID harness (BER-7
// setting, 50 minislots).
type FrameLatencyOptions struct {
	// Seed drives arrivals and faults.
	Seed uint64
	// Quick shrinks the horizon.
	Quick bool
	// Messages is the synthetic static set size (default 80, the paper's
	// frame IDs 1..80).
	Messages int
	// Parallel is the sweep worker count: 0 uses every core, 1 runs
	// serially.  The rows are identical for every value.
	Parallel int
	// Ctx optionally bounds the sweep: every cell checks it before
	// starting, so a deadline or cancellation stops the run at the next
	// cell boundary.  Nil means run to completion.
	Ctx context.Context
}

func (o *FrameLatencyOptions) fill() {
	if o.Messages <= 0 {
		o.Messages = syntheticStaticSlots
	}
}

// FrameLatency reproduces Figure 4(a)'s series: mean static-segment latency
// per frame ID (1..Messages) on the synthetic workload, for both schedulers.
func FrameLatency(opts FrameLatencyOptions) ([]FrameLatencyRow, error) {
	opts.fill()
	staticSet, staticSlots, err := latencyStaticSet("synthetic", opts.Seed, opts.Messages)
	if err != nil {
		return nil, err
	}
	set, err := latencyWorkload(staticSet, staticSlots, opts.Seed)
	if err != nil {
		return nil, err
	}
	setup, err := LatencySetup(set, staticSlots, latencyMinislots)
	if err != nil {
		return nil, err
	}
	sc := BER7()
	rows, err := runner.FlatMapCtx(opts.Ctx, opts.Parallel, 2, func(schedIdx int) ([]FrameLatencyRow, error) {
		sched := schedulers(set, sc)[schedIdx]
		res, err := runStreaming(set, setup, sc, sched, opts.Seed, opts.Quick)
		if err != nil {
			return nil, fmt.Errorf("fig4a: %w", err)
		}
		var out []FrameLatencyRow
		for id := 1; id <= opts.Messages; id++ {
			mean, ok := res.Report.PerFrameMean[id]
			if !ok {
				continue
			}
			out = append(out, FrameLatencyRow{
				FrameID:   id,
				Scheduler: res.Scheduler,
				Mean:      mean,
			})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].FrameID != rows[j].FrameID {
			return rows[i].FrameID < rows[j].FrameID
		}
		return rows[i].Scheduler < rows[j].Scheduler
	})
	return rows, nil
}

// FrameLatencyTable renders the per-frame series.
func FrameLatencyTable(rows []FrameLatencyRow) Table {
	t := Table{
		Title:  "Figure 4(a): static latency per frame ID (synthetic)",
		Header: []string{"frame ID", "scheduler", "mean latency"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.FrameID),
			r.Scheduler,
			r.Mean.String(),
		})
	}
	return t
}
