package experiment

import (
	"fmt"
	"time"

	"github.com/flexray-go/coefficient/internal/analysis"
	"github.com/flexray-go/coefficient/internal/workload"
)

// WCRTRow is one message's analytical worst-case response time.
type WCRTRow struct {
	// Workload names the message set.
	Workload string
	// FrameID identifies the message.
	FrameID int
	// WCRT is the analytical bound (-1: unbounded).
	WCRT time.Duration
	// MeetsDeadline compares the bound against the deadline.
	MeetsDeadline bool
}

// WCRTOptions configures the analysis run.
type WCRTOptions struct {
	// Seed drives the SAE workload draw.
	Seed uint64
}

// WCRT computes analytical response-time bounds for the BBW and ACC
// workloads (plus the SAE aperiodics) on the 1 ms cycle with 50 minislots.
func WCRT(opts WCRTOptions) ([]WCRTRow, error) {
	var rows []WCRTRow
	for _, name := range []string{"BBW", "ACC"} {
		base := workload.BBW()
		if name == "ACC" {
			base = workload.ACC()
		}
		set, err := latencyWorkload(base, latencyStaticSlots, opts.Seed)
		if err != nil {
			return nil, err
		}
		setup, err := LatencySetup(set, latencyStaticSlots, latencyMinislots)
		if err != nil {
			return nil, err
		}
		results, err := analysis.All(set, setup.Config, setup.BitRate)
		if err != nil {
			return nil, fmt.Errorf("wcrt %s: %w", name, err)
		}
		for _, r := range results {
			rows = append(rows, WCRTRow{
				Workload:      name,
				FrameID:       r.FrameID,
				WCRT:          r.WCRT,
				MeetsDeadline: r.MeetsDeadline,
			})
		}
	}
	return rows, nil
}

// WCRTTable renders the analysis rows.
func WCRTTable(rows []WCRTRow) Table {
	t := Table{
		Title:  "Analytical worst-case response times (1 ms cycle)",
		Header: []string{"workload", "frame", "WCRT", "meets deadline"},
	}
	for _, r := range rows {
		w := r.WCRT.String()
		if r.WCRT < 0 {
			w = "unbounded"
		}
		t.Rows = append(t.Rows, []string{
			r.Workload,
			fmt.Sprintf("%d", r.FrameID),
			w,
			fmt.Sprintf("%t", r.MeetsDeadline),
		})
	}
	return t
}
