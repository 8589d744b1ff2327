package experiment

import (
	"fmt"

	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/workload"
)

// MissRatioNaive is the one-engine-per-replica reference implementation
// of the Figure 5 sweep: every (minislots, scenario, scheduler, replica)
// cell builds its own setup, scheduler, injectors and simulation engine
// from scratch through sim.Run.  It is the differential baseline for
// MissRatio's replica loop, which reuses one run state per point and one
// injector pair per worker: both must produce identical rows at every
// parallelism degree, checked by TestMissRatioMatchesNaive and the
// repository benchmark's fig5 output check.
func MissRatioNaive(opts MissOptions) ([]MissRow, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	set, err := latencyWorkload(workload.BBW(), latencyStaticSlots, opts.Seed)
	if err != nil {
		return nil, err
	}
	type missCell struct {
		ms       int
		sc       Scenario
		schedIdx int
		replica  int
	}
	type missSample struct {
		scheduler string
		ratio     float64
	}
	var cells []missCell
	for _, ms := range opts.Minislots {
		for _, sc := range opts.Scenarios {
			for schedIdx := 0; schedIdx < 2; schedIdx++ {
				for r := 0; r < opts.Replicas; r++ {
					cells = append(cells, missCell{ms: ms, sc: sc, schedIdx: schedIdx, replica: r})
				}
			}
		}
	}
	samples, err := runner.MapCtx(opts.Ctx, opts.Parallel, len(cells), func(i int) (missSample, error) {
		c := cells[i]
		setup, err := LatencySetup(set, latencyStaticSlots, c.ms)
		if err != nil {
			return missSample{}, err
		}
		seed := deriveSeed(opts.Seed, seedStreamReplica, uint64(c.replica))
		sched := schedulers(set, c.sc)[c.schedIdx]
		res, err := runStreaming(set, setup, c.sc, sched, seed, opts.Quick)
		if err != nil {
			return missSample{}, fmt.Errorf("fig5 %d/%s: %w", c.ms, c.sc.Label, err)
		}
		return missSample{scheduler: res.Scheduler, ratio: res.Report.OverallMissRatio()}, nil
	})
	if err != nil {
		return nil, err
	}
	// Consecutive groups of Replicas samples form one row, in cell order.
	var rows []MissRow
	for start := 0; start < len(samples); start += opts.Replicas {
		group := samples[start : start+opts.Replicas]
		vals := make([]float64, len(group))
		for i, s := range group {
			vals[i] = s.ratio
		}
		mean, std := meanStd(vals)
		c := cells[start]
		rows = append(rows, MissRow{
			Minislots: c.ms,
			Scenario:  c.sc.Label,
			Scheduler: group[len(group)-1].scheduler,
			MissRatio: mean,
			StdDev:    std,
			Replicas:  opts.Replicas,
		})
	}
	return rows, nil
}
