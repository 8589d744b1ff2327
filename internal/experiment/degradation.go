package experiment

import (
	"context"
	"fmt"
	"time"

	"github.com/flexray-go/coefficient/internal/core"
	"github.com/flexray-go/coefficient/internal/fspec"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/scenario"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/workload"
)

// DefaultDegradationScenario builds the stock graceful-degradation
// timeline over the given horizon: channel A runs at the design BER, steps
// to 1e-4 over the second quarter of the run (EMI episode), and blacks out
// entirely for one eighth starting at 5/8 of the horizon (connector loss);
// channel B stays healthy throughout.
func DefaultDegradationScenario(horizon time.Duration) *scenario.Scenario {
	q := horizon / 8
	return &scenario.Scenario{
		Name: "ber-step-plus-blackout",
		Channels: map[string]*scenario.Channel{
			"A": {
				BaseBER: ScenarioBER,
				Steps: []scenario.Step{{
					Start: scenario.Duration(2 * q),
					End:   scenario.Duration(4 * q),
					BER:   1e-4,
				}},
				Blackouts: []scenario.Window{{
					Start: scenario.Duration(5 * q),
					End:   scenario.Duration(6 * q),
				}},
			},
			"B": {BaseBER: ScenarioBER},
		},
	}
}

// DegradationRow is one scheduler variant's outcome under the scenario.
type DegradationRow struct {
	// Variant labels the policy ("FSPEC", "CoEfficient",
	// "CoEfficient+adapt").
	Variant string
	// MissRatio is late deliveries plus drops over all instances.
	MissRatio float64
	// StaticMiss and DynamicMiss split the miss ratio by segment.
	StaticMiss, DynamicMiss float64
	// Faults counts corrupted transmissions (blackout losses included).
	Faults int64
	// Retransmissions counts retransmission attempts on the wire.
	Retransmissions int64
	// Adaptive holds the controller gauges (zero for non-adaptive rows).
	Adaptive metrics.AdaptiveGauges
}

// DegradationOptions configures the degradation harness.
type DegradationOptions struct {
	// Scenario is the fault timeline; nil selects
	// DefaultDegradationScenario over the run horizon.
	Scenario *scenario.Scenario
	// Goal setting; defaults to BER7.
	Setting Scenario
	// Seed drives arrivals and scenario faults.
	Seed uint64
	// Quick shrinks the horizon.
	Quick bool
	// Minislots is the dynamic segment size (default 50).
	Minislots int
	// Parallel is the sweep worker count: 0 uses every core, 1 runs
	// serially.  The rows are identical for every value.
	Parallel int
	// Ctx optionally bounds the sweep: every cell checks it before
	// starting, so a deadline or cancellation stops the run at the next
	// cell boundary.  Nil means run to completion.
	Ctx context.Context
}

func (o *DegradationOptions) fill() error {
	if o.Setting.Label == "" {
		o.Setting = BER7()
	}
	switch {
	case o.Minislots == 0:
		o.Minislots = 50
	case o.Minislots < 0:
		return fmt.Errorf("%w: Minislots %d negative", ErrSetup, o.Minislots)
	}
	return nil
}

// Degradation runs the graceful-degradation comparison: the FSPEC baseline,
// static CoEfficient (offline plan only), and adaptive CoEfficient (online
// replanning, failover, shedding) on the same workload, seed and fault
// scenario.  All three see byte-identical fault timelines — the scenario
// injectors are derived from the seed, not from the policy.
func Degradation(opts DegradationOptions) ([]DegradationRow, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	set, err := latencyWorkload(workload.BBW(), latencyStaticSlots, opts.Seed)
	if err != nil {
		return nil, err
	}
	setup, err := LatencySetup(set, latencyStaticSlots, opts.Minislots)
	if err != nil {
		return nil, err
	}
	horizon := streamDuration(opts.Quick)
	scn := opts.Scenario
	if scn == nil {
		scn = DefaultDegradationScenario(horizon)
	}
	sc := opts.Setting

	variants := []struct {
		label string
		sched func() sim.Scheduler
	}{
		{"FSPEC", func() sim.Scheduler {
			return fspec.New(fspec.Options{Copies: FSPECCopies(set, sc, 0)})
		}},
		{"CoEfficient", func() sim.Scheduler {
			return core.New(core.Options{BER: sc.BER, Goal: sc.Goal, Unit: PlanUnit})
		}},
		{"CoEfficient+adapt", func() sim.Scheduler {
			return core.New(core.Options{BER: sc.BER, Goal: sc.Goal, Unit: PlanUnit, Adaptive: true})
		}},
	}

	// The scenario is compiled once — options validated, dispatch tables
	// and wire timing built — and shared read-only by the three variant
	// cells; each cell derives its own run state and scheduler, and its
	// Reset compiles the variant's scenario runtime from the seed.
	compiled, err := sim.Compile(sim.Options{
		Config:   setup.Config,
		Workload: set,
		BitRate:  setup.BitRate,
		Scenario: scn,
		Mode:     sim.Streaming,
		Duration: horizon,
	})
	if err != nil {
		return nil, fmt.Errorf("degradation: %w", err)
	}
	return runner.MapCtx(opts.Ctx, opts.Parallel, len(variants), func(i int) (DegradationRow, error) {
		v := variants[i]
		st, err := compiled.NewState(v.sched())
		if err != nil {
			return DegradationRow{}, fmt.Errorf("degradation %s: %w", v.label, err)
		}
		if err := st.Reset(sim.ReplicaOptions{Seed: opts.Seed}); err != nil {
			return DegradationRow{}, fmt.Errorf("degradation %s: %w", v.label, err)
		}
		res, err := st.Run()
		if err != nil {
			return DegradationRow{}, fmt.Errorf("degradation %s: %w", v.label, err)
		}
		return DegradationRow{
			Variant:         v.label,
			MissRatio:       res.Report.OverallMissRatio(),
			StaticMiss:      res.Report.DeadlineMissRatio[metrics.Static],
			DynamicMiss:     res.Report.DeadlineMissRatio[metrics.Dynamic],
			Faults:          res.Report.Faults,
			Retransmissions: res.Report.Retransmissions,
			Adaptive:        res.Report.Adaptive,
		}, nil
	})
}

// DegradationTable renders degradation rows.
func DegradationTable(rows []DegradationRow) Table {
	t := Table{
		Title: "Graceful degradation under a fault scenario",
		Header: []string{"variant", "miss", "static miss", "dyn miss",
			"faults", "retx", "replans", "failovers", "shed"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Variant,
			fmt.Sprintf("%.4f", r.MissRatio),
			fmt.Sprintf("%.4f", r.StaticMiss),
			fmt.Sprintf("%.4f", r.DynamicMiss),
			fmt.Sprintf("%d", r.Faults),
			fmt.Sprintf("%d", r.Retransmissions),
			fmt.Sprintf("%d", r.Adaptive.Replans),
			fmt.Sprintf("%d", r.Adaptive.Failovers),
			fmt.Sprintf("%d", r.Adaptive.ShedMessages),
		})
	}
	return t
}
