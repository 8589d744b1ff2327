package experiment

import (
	"context"
	"fmt"
	"time"

	"github.com/flexray-go/coefficient/internal/core"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/scenario"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/workload"
)

// DefaultTimingFaultScenario scripts the babbling-idiot episode of the
// timing-fault experiment: the given node babbles into other nodes' static
// slots from 1/4 to 3/4 of the horizon.
func DefaultTimingFaultScenario(horizon time.Duration, babbler int) *scenario.Scenario {
	q := horizon / 8
	return &scenario.Scenario{
		Name: "babbling-idiot",
		Timing: &scenario.TimingFaults{
			Babble: []scenario.NodeWindow{{
				Node:  babbler,
				Start: scenario.Duration(2 * q),
				End:   scenario.Duration(6 * q),
			}},
		},
	}
}

// TimingFaultRow is one variant's outcome under timing faults.
type TimingFaultRow struct {
	// Variant labels the run ("drift+FTM", "drift unsynced",
	// "babble no-guardian", "babble+guardian").
	Variant string
	// StaticMiss and DynamicMiss are the per-segment deadline miss ratios.
	StaticMiss, DynamicMiss float64
	// Faults counts corrupted transmissions (babble collisions included).
	Faults int64
	// Sync holds the clock-synchronization health gauges.
	Sync metrics.SyncGauges
}

// TimingFaultOptions configures the timing-fault harness (BER-7 goal
// setting, 50 minislots).
type TimingFaultOptions struct {
	// Seed drives arrivals, per-node drift draws and measurement jitter.
	Seed uint64
	// Quick shrinks the horizon.
	Quick bool
	// DriftPPM bounds the per-node oscillator error (default 100).
	DriftPPM float64
	// Guardians selects the babbling-idiot variants: "both" (default),
	// "on" or "off".
	Guardians string
	// Parallel is the sweep worker count: 0 uses every core, 1 runs
	// serially.  The rows are identical for every value.
	Parallel int
	// Ctx optionally bounds the sweep: every cell checks it before
	// starting, so a deadline or cancellation stops the run at the next
	// cell boundary.  Nil means run to completion.
	Ctx context.Context
}

func (o *TimingFaultOptions) fill() error {
	if o.DriftPPM <= 0 {
		o.DriftPPM = 100
	}
	switch o.Guardians {
	case "":
		o.Guardians = "both"
	case "both", "on", "off":
	default:
		return fmt.Errorf("%w: guardians %q (want both, on or off)", ErrSetup, o.Guardians)
	}
	return nil
}

// TimingFault runs the timing-fault comparison on the BBW + SAE workload:
// drifting oscillators with and without the FTM correction loop, then a
// babbling-idiot episode with and without bus guardians.  All variants share
// the seed, so the drift draws and arrival processes are identical — the
// deadline-miss delta between the babble rows is purely the guardians'
// containment.
func TimingFault(opts TimingFaultOptions) ([]TimingFaultRow, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	set, err := latencyWorkload(workload.BBW(), latencyStaticSlots, opts.Seed)
	if err != nil {
		return nil, err
	}
	setup, err := LatencySetup(set, latencyStaticSlots, latencyMinislots)
	if err != nil {
		return nil, err
	}
	horizon := streamDuration(opts.Quick)
	statics := set.Static()
	if len(statics) == 0 {
		return nil, fmt.Errorf("%w: no static messages to babble over", ErrSetup)
	}
	babble := DefaultTimingFaultScenario(horizon, statics[0].Node)
	sc := BER7()

	timing := func(syncEnabled, guardians bool) *sim.TimingOptions {
		return &sim.TimingOptions{
			DriftPPM:         opts.DriftPPM,
			JitterMicroticks: 4,
			SyncEnabled:      syncEnabled,
			Guardians:        guardians,
		}
	}
	variants := []struct {
		label  string
		timing *sim.TimingOptions
		scn    *scenario.Scenario
	}{
		{"drift+FTM", timing(true, false), nil},
		{"drift unsynced", timing(false, false), nil},
		{"babble no-guardian", timing(true, false), babble},
		{"babble+guardian", timing(true, true), babble},
	}

	// The guardian filter picks the cells before the sweep runs, so the
	// canonical cell order matches the serial variant order exactly.
	kept := variants[:0]
	for _, v := range variants {
		if v.scn != nil {
			if opts.Guardians == "on" && !v.timing.Guardians {
				continue
			}
			if opts.Guardians == "off" && v.timing.Guardians {
				continue
			}
		}
		kept = append(kept, v)
	}
	return runner.MapCtx(opts.Ctx, opts.Parallel, len(kept), func(i int) (TimingFaultRow, error) {
		v := kept[i]
		sched := core.New(core.Options{BER: sc.BER, Goal: sc.Goal, Unit: PlanUnit})
		res, err := sim.Run(sim.Options{
			Config:   setup.Config,
			Workload: set,
			BitRate:  setup.BitRate,
			Seed:     opts.Seed,
			Scenario: v.scn,
			Timing:   v.timing,
			Mode:     sim.Streaming,
			Duration: horizon,
		}, sched)
		if err != nil {
			return TimingFaultRow{}, fmt.Errorf("timing %s: %w", v.label, err)
		}
		return TimingFaultRow{
			Variant:     v.label,
			StaticMiss:  res.Report.DeadlineMissRatio[metrics.Static],
			DynamicMiss: res.Report.DeadlineMissRatio[metrics.Dynamic],
			Faults:      res.Report.Faults,
			Sync:        res.Report.Sync,
		}, nil
	})
}

// TimingFaultTable renders timing-fault rows.
func TimingFaultTable(rows []TimingFaultRow) Table {
	t := Table{
		Title: "Timing faults: drift, FTM sync and bus guardians",
		Header: []string{"variant", "static miss", "dyn miss", "faults",
			"max offset (MT)", "corrections", "guardian blocks",
			"sync losses", "halts", "reintegrations"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Variant,
			fmt.Sprintf("%.4f", r.StaticMiss),
			fmt.Sprintf("%.4f", r.DynamicMiss),
			fmt.Sprintf("%d", r.Faults),
			fmt.Sprintf("%.2f", r.Sync.MaxOffsetMacroticks),
			fmt.Sprintf("%d", r.Sync.Corrections),
			fmt.Sprintf("%d", r.Sync.GuardianBlocks),
			fmt.Sprintf("%d", r.Sync.SyncLossEvents),
			fmt.Sprintf("%d", r.Sync.Halts),
			fmt.Sprintf("%d", r.Sync.Reintegrations),
		})
	}
	return t
}
