// Package lint is a suite of static analyzers that mechanically enforce
// the simulator's determinism and error-handling contracts (DESIGN.md §8,
// §9).  PR 3 fixed two bugs of exactly the classes checked here — a map
// iteration whose order leaked into output, and a file Close whose error
// was silently dropped — and nothing but review prevented their
// reintroduction across the internal packages.  These analyzers make the
// contracts machine-checked.
//
// The suite mirrors the golang.org/x/tools/go/analysis API (Analyzer,
// Pass, Diagnostic) but is built on the standard library alone: packages
// are parsed with go/parser and type-checked with go/types using the
// source importer, so the linter needs no dependencies outside the Go
// toolchain.
//
// Analyzers:
//
//   - mapiter: flags `for range` over a map whose body is not provably
//     order-independent, in determinism-critical packages.
//   - wallclock: forbids time.Now/Since/Until and the global math/rand
//     source in simulation, experiment, and serving code (the daemon's
//     job seeds and the chaos harness's fault draws must be seeded,
//     never wall-clock derived).
//   - errdrop: flags discarded errors from Close, Flush, Write,
//     WriteString, Encode and Sync on error-returning writers.
//   - goroutineleak: flags goroutines launched without a completion
//     signal (WaitGroup, done channel, or context).
//
// Three further analyzers are interprocedural: they run over a Module —
// every package of one load sharing a call graph — rather than one
// package at a time (DESIGN.md §14):
//
//   - seedtaint: forbids offset arithmetic (Seed+replica, seed*2+1) on
//     values tainted as seeds anywhere in the flow; streams derive
//     through runner.CellSeed and experiment.deriveSeed only.
//   - ctxflow: a function accepting a context.Context must thread it to
//     the blocking callees it reaches, not drop it or mint
//     context.Background() mid-path.
//   - detreach: functions annotated //lint:deterministic must not
//     transitively reach time.Now, the global math/rand source,
//     os.Getenv, or an unordered map range.
//
// A diagnostic is suppressed by a directive comment on the offending
// line, or the line directly above it:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is required: a suppression without a justification is
// itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one static check, shaped after
// golang.org/x/tools/go/analysis.Analyzer so the suite can migrate to
// the real framework without touching the checks.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run performs the check, reporting findings through the pass.
	Run func(*Pass) error
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions to file locations.
	Fset *token.FileSet
	// Files holds the package's parsed files, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's expression and object tables.
	TypesInfo *types.Info
	// Mod is the interprocedural unit — the module-wide call graph and
	// taint state the dataflow analyzers (seedtaint, ctxflow, detreach)
	// consult.  Per-file analyzers ignore it.
	Mod *Module
	// Unit is the loaded package behind Pkg/TypesInfo; module-wide
	// results are keyed by it.
	Unit *Package
	// report collects diagnostics.
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	// Analyzer names the check that fired.
	Analyzer string
	// Pos locates the finding.
	Pos token.Position
	// Message describes the violation and the sanctioned fix.
	Message string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Suite returns all analyzers in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{CtxFlow, DetReach, ErrDrop, GoroutineLeak, HotPath, MapIter, SeedTaint, Wallclock}
}

// ByName returns the named analyzer from the suite, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Suite() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// criticalScope maps an analyzer name to the import-path suffixes of the
// packages it applies to.  An empty entry (or a missing one) means the
// analyzer runs everywhere.  mapiter and wallclock guard the determinism
// contract, which binds the simulation/experiment pipeline; errdrop is a
// correctness property of the whole repository; goroutineleak is scoped
// to the packages that are allowed to start goroutines at all.
var criticalScope = map[string][]string{
	"mapiter": {
		"internal/sim", "internal/runner",
		"internal/experiment", "internal/scenario", "internal/fault",
		"internal/core", "internal/serve", "internal/serve/journal",
		"internal/serve/chaostest",
		"internal/corpus", "internal/adapt", "internal/node",
		"internal/fspec", "internal/clocksync", "internal/metrics",
		"internal/trace", "internal/frame", "internal/timebase",
		"internal/signal", "internal/topology", "internal/reliability",
	},
	// The durability layer (internal/serve/journal) is listed explicitly:
	// suffix matching does not descend into subpackages, and journal
	// replay must be a pure function of the bytes on disk — no wall-clock
	// reads, no map-order leaks into record sequences.  The chaos harness
	// (internal/serve/chaostest) is listed for the same reason: its fault
	// draws come from a seeded stream, so a failing chaos run replays.  internal/corpus
	// is in scope for the same reason: corpus generation and the golden
	// store must be pure functions of the corpus seed.  The packages
	// after internal/corpus run inside every simulated cycle, like
	// internal/core (internal/reliability in every adaptive replan).
	"wallclock": {
		"internal/sim", "internal/runner",
		"internal/experiment", "internal/scenario", "internal/fault",
		"internal/core", "internal/serve", "internal/serve/journal",
		"internal/serve/chaostest",
		"internal/corpus", "internal/adapt", "internal/node",
		"internal/fspec", "internal/clocksync", "internal/metrics",
		"internal/trace", "internal/frame", "internal/timebase",
		"internal/signal", "internal/topology", "internal/reliability",
	},
	"goroutineleak": {"internal/runner", "internal/sim", "internal/serve", "internal/serve/journal"},
	"errdrop":       nil, // whole repository
	// hotpath only fires inside functions that opt in with a
	// //perf:hotpath marker, so it is scoped to the packages the
	// engine's cycle loop traverses.
	"hotpath": {
		"internal/sim", "internal/core",
		"internal/fspec", "internal/node", "internal/trace",
		"internal/fault", "internal/metrics",
	},
	// seedtaint guards the seed-derivation contract where seeds are
	// minted and consumed: the derivation core, the experiment grid, the
	// daemon (job seeds) and its chaos harness (fault draws), corpus
	// generation, and every binary and example that hands seeds in from
	// the outside (the "/..." entries match whole subtrees).  internal/sim is deliberately out of scope:
	// the engine's frozen XOR-salt convention (opts.Seed ^ seedCRC) is
	// pinned by byte-identical trace goldens and predates the contract.
	"seedtaint": {
		"internal/runner", "internal/experiment", "internal/corpus",
		"internal/serve", "internal/serve/journal", "internal/serve/chaostest",
		"cmd/...", "examples/...",
	},
	// ctxflow covers the cancellation chains: the daemon and its
	// durability layer, the parallel runner, and the pipelines that call
	// into them.  cmd/ roots are sanctioned context minters and stay out
	// of scope.
	"ctxflow": {
		"internal/serve", "internal/serve/journal", "internal/runner",
		"internal/experiment", "internal/corpus", "internal/sim",
	},
	// detreach fires only on functions annotated //lint:deterministic,
	// so it runs everywhere.
	"detreach": nil,
}

// Applies reports whether the analyzer runs over the package with the
// given import path under the default scope.  A plain entry matches the
// package whose import path ends in that suffix; an entry ending in
// "/..." matches the named directory and everything beneath it
// ("cmd/..." covers every binary).  Test harnesses bypass this and run
// analyzers directly.
func Applies(a *Analyzer, importPath string) bool {
	suffixes, ok := criticalScope[a.Name]
	if !ok || len(suffixes) == 0 {
		return true
	}
	for _, s := range suffixes {
		if base, subtree := strings.CutSuffix(s, "/..."); subtree {
			if importPath == base || strings.HasSuffix(importPath, "/"+base) ||
				strings.HasPrefix(importPath, base+"/") || strings.Contains(importPath, "/"+base+"/") {
				return true
			}
			continue
		}
		if importPath == s || strings.HasSuffix(importPath, "/"+s) {
			return true
		}
	}
	return false
}

// ScopedAnalyzers returns the suite members that apply to importPath.
func ScopedAnalyzers(importPath string) []*Analyzer {
	var out []*Analyzer
	for _, a := range Suite() {
		if Applies(a, importPath) {
			out = append(out, a)
		}
	}
	return out
}
