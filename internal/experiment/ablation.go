package experiment

import (
	"context"
	"fmt"
	"time"

	"github.com/flexray-go/coefficient/internal/core"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/workload"
)

// AblationRow reports one CoEfficient variant on the standard workload.
type AblationRow struct {
	// Variant names the knob setting.
	Variant string
	// MissRatio is the overall deadline miss ratio.
	MissRatio float64
	// DynamicMean is the mean dynamic-segment latency.
	DynamicMean time.Duration
	// RawUtilization is all wire time over capacity.
	RawUtilization float64
	// StolenStatic counts transmissions placed into idle static slots.
	StolenStatic int64
}

// AblationOptions configures the ablation sweep (BER-7 setting, 50
// minislots).
type AblationOptions struct {
	// Seed drives arrivals and faults.
	Seed uint64
	// Quick shrinks the horizon.
	Quick bool
	// Parallel is the sweep worker count: 0 uses every core, 1 runs
	// serially.  The rows are identical for every value.
	Parallel int
	// Ctx optionally bounds the sweep: every cell checks it before
	// starting, so a deadline or cancellation stops the run at the next
	// cell boundary.  Nil means run to completion.
	Ctx context.Context
}

// Ablations runs the design-choice ablations of DESIGN.md §4 on the
// BBW + SAE workload: the full CoEfficient configuration against variants
// with one mechanism disabled each.
func Ablations(opts AblationOptions) ([]AblationRow, error) {
	set, err := latencyWorkload(workload.BBW(), latencyStaticSlots, opts.Seed)
	if err != nil {
		return nil, err
	}
	setup, err := LatencySetup(set, latencyStaticSlots, latencyMinislots)
	if err != nil {
		return nil, err
	}

	sc := BER7()
	base := core.Options{BER: sc.BER, Goal: sc.Goal, Unit: PlanUnit}
	variants := []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"full", func(*core.Options) {}},
		{"uniform-plan", func(o *core.Options) { o.Uniform = true }},
		{"single-channel", func(o *core.Options) { o.SingleChannel = true }},
		{"no-selective-slack", func(o *core.Options) { o.NoSelectiveSlack = true }},
	}

	return runner.MapCtx(opts.Ctx, opts.Parallel, len(variants), func(i int) (AblationRow, error) {
		v := variants[i]
		o := base
		v.mutate(&o)
		sched := core.New(o)
		res, err := runStreaming(set, setup, sc, sched, opts.Seed, opts.Quick)
		if err != nil {
			return AblationRow{}, fmt.Errorf("ablation %s: %w", v.name, err)
		}
		return AblationRow{
			Variant:        v.name,
			MissRatio:      res.Report.OverallMissRatio(),
			DynamicMean:    res.Report.MeanLatency[metrics.Dynamic],
			RawUtilization: res.Report.RawUtilization,
			StolenStatic:   sched.Stats().StolenStatic,
		}, nil
	})
}

// AblationTable renders the ablation rows.
func AblationTable(rows []AblationRow) Table {
	t := Table{
		Title:  "CoEfficient ablations (BBW + SAE, BER-7)",
		Header: []string{"variant", "miss ratio", "dyn mean", "raw bw", "stolen static"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Variant,
			fmt.Sprintf("%.4f", r.MissRatio),
			r.DynamicMean.String(),
			fmt.Sprintf("%.4f", r.RawUtilization),
			fmt.Sprintf("%d", r.StolenStatic),
		})
	}
	return t
}
