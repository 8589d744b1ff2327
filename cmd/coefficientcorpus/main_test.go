package main

import (
	"context"
	"testing"
)

func TestRejectsNegativeWorkerCounts(t *testing.T) {
	const parallelErr = "-parallel -4: must be 0 (all cores) or positive"
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"run/verify-parallel", []string{"run", "-count", "2", "-quick", "-verify-parallel", "-1"},
			"-verify-parallel -1: must be 0 (off) or positive"},
		{"run/parallel", []string{"run", "-count", "1", "-quick", "-parallel", "-4"}, parallelErr},
		{"diff/parallel", []string{"diff", "-count", "1", "-quick", "-parallel", "-4"}, parallelErr},
		{"minimize/parallel", []string{"minimize", "-case", "case.json", "-parallel", "-4"}, parallelErr},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, err := run(context.Background(), tc.args)
			if code != 2 || err == nil || err.Error() != tc.want {
				t.Fatalf("run(%q) = %d, %v; want 2, %q", tc.args, code, err, tc.want)
			}
		})
	}
}
