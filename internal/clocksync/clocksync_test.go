package clocksync

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestFTMDiscard(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 0}, {3, 1}, {7, 1}, {8, 2}, {20, 2},
	}
	for _, tt := range tests {
		if got := FTMDiscard(tt.n); got != tt.want {
			t.Errorf("FTMDiscard(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestFTMHandComputed(t *testing.T) {
	tests := []struct {
		name string
		in   []int64
		want int64
	}{
		{"single", []int64{6}, 6},
		{"pair", []int64{2, 10}, 6},
		{"discard one each side", []int64{-100, 2, 10, 200}, 6},
		{"discard one of five", []int64{-30, -5, 0, 5, 900}, 0},
		{"unsorted with outliers", []int64{10, 900, 2, -900, 4}, 6},
		{"discard two each side", []int64{-900, -100, 0, 4, 8, 12, 100, 900}, 6},
		{"negative midpoint", []int64{-10, -2}, -6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := slices.Clone(tt.in)
			got, err := FTM(in)
			if err != nil {
				t.Fatalf("FTM: %v", err)
			}
			if got != tt.want {
				t.Errorf("FTM(%v) = %d, want %d", tt.in, got, tt.want)
			}
			want := slices.Clone(tt.in)
			slices.Sort(want)
			if !slices.Equal(in, want) {
				t.Errorf("FTM left its input as %v, want it sorted ascending %v", in, want)
			}
		})
	}
	if _, err := FTM(nil); !errors.Is(err, ErrNoMeasurements) {
		t.Errorf("FTM(nil) = %v, want ErrNoMeasurements", err)
	}
}

// Property: the FTM result lies within the range of the kept values, and
// up to k adversarial outliers cannot push it outside the honest range
// (when at least k honest values flank them).
func TestFTMBoundedByHonestRangeProperty(t *testing.T) {
	f := func(honestRaw []int8, outlier int32) bool {
		if len(honestRaw) < 6 {
			return true
		}
		honest := make([]int64, 0, len(honestRaw))
		var lo, hi int64
		for i, h := range honestRaw {
			v := int64(h)
			honest = append(honest, v)
			if i == 0 || v < lo {
				lo = v
			}
			if i == 0 || v > hi {
				hi = v
			}
		}
		// Two adversarial extremes (k=2 territory needs n ≥ 8 total).
		all := append(slices.Clone(honest), int64(outlier)+100000, -int64(outlier)-100000)
		got, err := FTM(all)
		if err != nil {
			return false
		}
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
