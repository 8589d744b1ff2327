package fault_test

import (
	"math"
	"testing"

	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/workload"
)

// checkProb fails unless the table returns the exact float
// FrameFailureProb returns.
func checkProb(t *testing.T, tbl *fault.SizeTable, ber float64, bits int) {
	t.Helper()
	got, err := tbl.Prob(ber, bits)
	want, wantErr := fault.FrameFailureProb(ber, bits)
	if err != nil || wantErr != nil {
		t.Fatalf("Prob(%g, %d): %v, FrameFailureProb: %v", ber, bits, err, wantErr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Prob(%g, %d) = %v, FrameFailureProb %v", ber, bits, got, want)
	}
}

// The per-BER size table returns the exact float FrameFailureProb
// returns, for random sizes and BERs — a few sizes asked again and again,
// and far more distinct sizes than the table holds, so it fills up and
// computes the rest directly.  Every wire size of the BBW+SAE and
// synthetic-80+SAE workloads hits the table after its first use: a table
// that let the sizes evict each other recomputed expm1/log1p on most
// draws.
func TestSizeTableMatchesFrameFailureProb(t *testing.T) {
	rng := fault.NewRNG(20260601)
	for trial := 0; trial < 50; trial++ {
		ber := 5e-3 * math.Pow(10, -6*rng.Float64())
		if trial == 0 {
			ber = 0
		}
		var tbl fault.SizeTable
		base := 1 + rng.Intn(400)
		for q := 0; q < 2000; q++ {
			bits := 1 + rng.Intn(3000)
			if rng.Intn(2) == 0 {
				bits = base + 20*rng.Intn(4) // wire sizes step 20 bits
			}
			checkProb(t, &tbl, ber, bits)
		}
		checkProb(t, &tbl, ber, 70000) // beyond the table's keys
	}

	sae, err := workload.SAEAperiodic(workload.SAEAperiodicOptions{FirstID: 81, Count: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bbw, err := workload.Merge("BBW+SAE", workload.BBW(), sae)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4's synthetic set at seed 1: the experiments' synthetic seed
	// stream (2) at index n = 80.
	syn, err := workload.Synthetic(workload.SyntheticOptions{Messages: 80, Seed: runner.CellSeed(1, 2, 80)})
	if err != nil {
		t.Fatal(err)
	}
	synSAE, err := workload.Merge("synthetic-80+SAE", syn, sae)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []struct {
		set   signal.Set
		sizes int
	}{{bbw, 34}, {synSAE, 66}} {
		for _, ber := range []float64{1e-9, 1e-7, 2e-4} {
			var tbl fault.SizeTable
			seen := make(map[int]bool)
			for _, m := range wl.set.Messages {
				bits := frame.WireBits(m.Bytes())
				if seen[bits] && !tbl.Holds(bits) {
					t.Fatalf("%s at BER %g: wire size %d evicted after its first use", wl.set.Name, ber, bits)
				}
				checkProb(t, &tbl, ber, bits)
				seen[bits] = true
			}
			for _, m := range wl.set.Messages {
				if bits := frame.WireBits(m.Bytes()); !tbl.Holds(bits) {
					t.Fatalf("%s at BER %g: wire size %d evicted after its first use", wl.set.Name, ber, bits)
				}
			}
			if len(seen) != wl.sizes {
				t.Fatalf("%s has %d wire sizes, want %d", wl.set.Name, len(seen), wl.sizes)
			}
		}
	}
}
