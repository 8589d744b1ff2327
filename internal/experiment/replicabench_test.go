package experiment

import (
	"reflect"
	"testing"
)

// TestMissRatioMatchesNaive is the fig5-level differential gate of the
// batched replica engine: the compile-once/Reset-per-replica sweep must
// produce rows identical (every field, including the replica stddev) to
// the one-engine-per-replica reference at every parallelism degree.  Any
// state leaking from one replica into the next — a counter not zeroed by
// Reset, an arena not rewound, a scheduler not rewound by ResetReplica —
// shows up here as a row diff.  BER7 and BER9 share one physical BER,
// so the BER-6 setting is what makes a worker moving between points
// rebuild its injector pair instead of reseeding it.
func TestMissRatioMatchesNaive(t *testing.T) {
	base := MissOptions{
		Seed:      7,
		Quick:     true,
		Minislots: []int{25, 50},
		Scenarios: []Scenario{BER7(), {Label: "BER-6", BER: 1e-6, Goal: 0.999}},
		Replicas:  3,
		Parallel:  1,
	}
	want, err := MissRatioNaive(base)
	if err != nil {
		t.Fatalf("MissRatioNaive: %v", err)
	}
	if len(want) != 8 { // 2 minislots x 2 scenarios x 2 schedulers
		t.Fatalf("naive rows = %d, want 8", len(want))
	}
	for _, row := range want {
		if row.Replicas != base.Replicas {
			t.Fatalf("naive row %+v: replicas = %d, want %d", row, row.Replicas, base.Replicas)
		}
	}
	for _, par := range []int{1, 8} {
		o := base
		o.Parallel = par
		got, err := MissRatio(o)
		if err != nil {
			t.Fatalf("MissRatio(parallel=%d): %v", par, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("MissRatio(parallel=%d) diverges from the naive reference:\n got  %+v\n want %+v", par, got, want)
		}
	}
}
