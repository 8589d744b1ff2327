package startup

import "testing"

func TestReintegrationCyclesDeterministicAndBounded(t *testing.T) {
	const listenRange = 8
	seen := map[int]bool{}
	for seed := uint64(0); seed < 64; seed++ {
		a := ReintegrationCycles(seed)
		b := ReintegrationCycles(seed)
		if a != b {
			t.Fatalf("seed %d: nondeterministic: %d vs %d", seed, a, b)
		}
		// listen window 2..2+listenRange-1, plus 4 integration cycles.
		if a < 6 || a > 5+listenRange {
			t.Fatalf("seed %d: %d outside [6, %d]", seed, a, 5+listenRange)
		}
		seen[a] = true
	}
	if len(seen) < 2 {
		t.Fatal("listen timeout never varied across seeds")
	}
}
