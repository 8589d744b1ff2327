package experiment

import (
	"fmt"

	"github.com/flexray-go/coefficient/internal/schedule"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/workload"
)

// SynthesisRow compares the naive one-slot-per-message static schedule with
// the slot-multiplexed synthesis for one workload — the static-segment
// schedule optimization of the paper's related work (Schmidt & Schmidt,
// Lukasiewycz et al.).
type SynthesisRow struct {
	// Workload names the message set.
	Workload string
	// Messages is the static message count.
	Messages int
	// NaiveSlots is the slot count with one slot per frame ID.
	NaiveSlots int
	// SynthesizedSlots is the multiplexed slot count.
	SynthesizedSlots int
	// LowerBound is the theoretical minimum.
	LowerBound int
	// Saved is the fraction of static-segment width saved.
	Saved float64
}

// SynthesisOptions configures the schedule-synthesis comparison.
type SynthesisOptions struct {
	// Seed drives the synthetic workload.
	Seed uint64
}

// Synthesis compares schedule widths for BBW, ACC and a 40-message
// synthetic set on the 1 ms cycle.
func Synthesis(opts SynthesisOptions) ([]SynthesisRow, error) {
	const syntheticMessages = 40
	syn, err := workload.Synthetic(workload.SyntheticOptions{
		Messages: syntheticMessages,
		Seed:     deriveSeed(opts.Seed, seedStreamSynthetic, syntheticMessages),
	})
	if err != nil {
		return nil, err
	}
	sets := []signal.Set{workload.BBW(), workload.ACC(), syn}

	var rows []SynthesisRow
	for _, set := range sets {
		// Give the synthesizer ample slots; it reports what it used.
		setup, err := LatencySetup(set, latencyStaticSlots, 50)
		if err != nil {
			// Synthetic sets with >30 messages need more slots.
			setup, err = LatencySetup(set, syntheticStaticSlots, 50)
			if err != nil {
				return nil, fmt.Errorf("synthesis %s: %w", set.Name, err)
			}
		}
		result, err := schedule.Synthesize(set, setup.Config)
		if err != nil {
			return nil, fmt.Errorf("synthesis %s: %w", set.Name, err)
		}
		bound, err := schedule.MinCycleLoad(set, setup.Config)
		if err != nil {
			return nil, err
		}
		naive := len(set.Static())
		rows = append(rows, SynthesisRow{
			Workload:         set.Name,
			Messages:         naive,
			NaiveSlots:       naive,
			SynthesizedSlots: result.SlotsUsed,
			LowerBound:       bound,
			Saved:            1 - float64(result.SlotsUsed)/float64(naive),
		})
	}
	return rows, nil
}

// SynthesisTable renders the comparison.
func SynthesisTable(rows []SynthesisRow) Table {
	t := Table{
		Title:  "Static schedule synthesis: slot multiplexing vs one slot per message",
		Header: []string{"workload", "messages", "naive", "synthesized", "lower bound", "saved"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Workload,
			fmt.Sprintf("%d", r.Messages),
			fmt.Sprintf("%d", r.NaiveSlots),
			fmt.Sprintf("%d", r.SynthesizedSlots),
			fmt.Sprintf("%d", r.LowerBound),
			fmt.Sprintf("%.1f%%", 100*r.Saved),
		})
	}
	return t
}
