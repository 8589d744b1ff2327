package lint_test

import (
	"testing"

	"github.com/flexray-go/coefficient/internal/lint"
	"github.com/flexray-go/coefficient/internal/lint/linttest"
)

// TestMapIter checks the positive and negative golden cases: direct
// map-order leaks are flagged; collect-then-sort, per-key writes,
// integer accumulators and delete are not.
func TestMapIter(t *testing.T) {
	linttest.Run(t, "testdata/src/mapiter", lint.MapIter)
}

// TestMapIterSimValidate locks the acceptance criterion: the PR 3
// sim.Options.validate bug shape trips mapiter, and the shipped
// sorted-keys fix shape stays clean.
func TestMapIterSimValidate(t *testing.T) {
	linttest.Run(t, "testdata/src/simvalidate", lint.MapIter)
}

// TestWallclock checks that wall-clock reads and global-rand draws are
// flagged while seeded *rand.Rand use is not.
func TestWallclock(t *testing.T) {
	linttest.Run(t, "testdata/src/wallclock", lint.Wallclock)
}

// TestErrDrop checks that dropped writer errors are flagged while
// propagated errors and can't-fail receivers are not.
func TestErrDrop(t *testing.T) {
	linttest.Run(t, "testdata/src/errdrop", lint.ErrDrop)
}

// TestGoroutineLeak checks that unjoinable goroutines are flagged while
// WaitGroup/channel/context patterns are not.
func TestGoroutineLeak(t *testing.T) {
	linttest.Run(t, "testdata/src/goroutineleak", lint.GoroutineLeak)
}

// TestHotPath checks that allocating constructs in //perf:hotpath
// functions are flagged while unmarked functions and non-allocating
// bodies are not.
func TestHotPath(t *testing.T) {
	linttest.Run(t, "testdata/src/hotpath", lint.HotPath)
}

// TestSeedTaint checks the taint engine's golden cases: the three
// verbatim PR 8 bug shapes (Seed+replica, Seed+7, seed*2+1) and their
// interprocedural variants are flagged; blessed derivation, verbatim
// pass-through, and %-projection are not.
func TestSeedTaint(t *testing.T) {
	linttest.Run(t, "testdata/src/seedtaint", lint.SeedTaint)
}

// TestCtxFlow checks the context-propagation golden cases: dropped
// deadlines and mid-path context.Background/TODO are flagged; threaded,
// derived, and harmlessly unused contexts are not.
func TestCtxFlow(t *testing.T) {
	linttest.Run(t, "testdata/src/ctxflow", lint.CtxFlow)
}

// TestDetReach checks determinism reachability: //lint:deterministic
// functions reaching the wall clock, global rand, the environment, or
// an unordered map range are flagged; seeded sources, sorted iteration,
// and vouched-for ranges are not.
func TestDetReach(t *testing.T) {
	linttest.Run(t, "testdata/src/detreach", lint.DetReach)
}

// TestSuite pins the suite's membership: every analyzer is registered
// and resolvable by name for //lint:allow validation and -only flags.
func TestSuite(t *testing.T) {
	names := map[string]bool{}
	for _, a := range lint.Suite() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		names[a.Name] = true
		if lint.ByName(a.Name) != a {
			t.Errorf("ByName(%q) does not round-trip", a.Name)
		}
	}
	for _, want := range []string{
		"mapiter", "wallclock", "errdrop", "goroutineleak", "hotpath",
		"seedtaint", "ctxflow", "detreach",
	} {
		if !names[want] {
			t.Errorf("suite is missing %q", want)
		}
	}
	if lint.ByName("nosuch") != nil {
		t.Error("ByName(nosuch) should be nil")
	}
}

// TestApplies pins the default scope: the determinism analyzers bind the
// simulation pipeline, errdrop binds everything, and goroutineleak binds
// only the packages allowed to start goroutines.
func TestApplies(t *testing.T) {
	const mod = "github.com/flexray-go/coefficient"
	cases := []struct {
		analyzer string
		path     string
		want     bool
	}{
		{"mapiter", mod + "/internal/sim", true},
		{"mapiter", mod + "/internal/runner", true},
		{"mapiter", mod + "/internal/experiment", true},
		{"mapiter", mod + "/internal/scenario", true},
		{"mapiter", mod + "/internal/fault", true},
		{"mapiter", mod + "/internal/core", true},
		{"mapiter", mod + "/internal/plot", false},
		{"mapiter", mod + "/internal/metrics", false},
		{"mapiter", mod + "/internal/serve", true},
		{"mapiter", mod + "/internal/serve/journal", true}, // record sequences must not leak map order
		{"wallclock", mod + "/internal/sim", true},
		{"wallclock", mod + "/internal/serve", true},         // retry jitter must be seeded, not wall-clock
		{"wallclock", mod + "/internal/serve/journal", true}, // recovery is a pure function of bytes on disk
		{"wallclock", mod + "/cmd/coefficientsim", false},    // bench timing is legitimate there
		{"errdrop", mod + "/internal/plot", true},
		{"errdrop", mod + "/internal/serve/journal", true},
		{"errdrop", mod + "/cmd/coefficientsim", true},
		{"errdrop", mod, true},
		{"goroutineleak", mod + "/internal/runner", true},
		{"goroutineleak", mod + "/internal/sim", true},
		{"goroutineleak", mod + "/internal/serve", true},
		{"goroutineleak", mod + "/internal/serve/journal", true},
		{"goroutineleak", mod + "/internal/experiment", false},
		{"hotpath", mod + "/internal/sim", true},
		{"hotpath", mod + "/internal/core", true},
		{"hotpath", mod + "/internal/fspec", true},
		{"hotpath", mod + "/internal/node", true},
		{"hotpath", mod + "/internal/trace", true},
		{"hotpath", mod + "/internal/plot", false},
		{"seedtaint", mod + "/internal/runner", true},
		{"seedtaint", mod + "/internal/experiment", true},
		{"seedtaint", mod + "/internal/corpus", true},
		{"seedtaint", mod + "/internal/serve", true},
		{"seedtaint", mod + "/internal/serve/journal", true},
		{"seedtaint", mod + "/cmd/coefficientsim", true},   // "cmd/..." covers every binary
		{"seedtaint", mod + "/examples/brakebywire", true}, // the PR 8 shapes lived here too
		{"seedtaint", mod + "/internal/sim", false},        // frozen XOR-salt convention, goldens pin it
		{"seedtaint", mod + "/internal/scenario", false},
		{"ctxflow", mod + "/internal/serve", true},
		{"ctxflow", mod + "/internal/serve/journal", true},
		{"ctxflow", mod + "/internal/runner", true},
		{"ctxflow", mod + "/internal/corpus", true},
		{"ctxflow", mod + "/cmd/coefficientserve", false}, // roots mint contexts by design
		{"detreach", mod + "/internal/sim", true},
		{"detreach", mod + "/internal/plot", true}, // annotation-gated, so scoped everywhere
		{"detreach", mod, true},
	}
	for _, c := range cases {
		a := lint.ByName(c.analyzer)
		if a == nil {
			t.Fatalf("unknown analyzer %q", c.analyzer)
		}
		if got := lint.Applies(a, c.path); got != c.want {
			t.Errorf("Applies(%s, %s) = %v, want %v", c.analyzer, c.path, got, c.want)
		}
	}
}
