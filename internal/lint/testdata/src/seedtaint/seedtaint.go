// Package seedtaint exercises the seedtaint analyzer: offset arithmetic
// on seed values is flagged wherever the value flows — including the
// three verbatim bug shapes PR 8 fixed — while blessed derivation,
// verbatim pass-through, and %-projection are not.
package seedtaint

// Opts mirrors the experiment options: an integer field named Seed is a
// taint source wherever it flows.
type Opts struct {
	Seed  uint64
	Count int
}

// mix64 stands in for the runner's splitmix64 finalizer.  Blessed by
// name: its body is the one place seed arithmetic is legitimate.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	return z
}

// CellSeed is the blessed derivation helper (runner.CellSeed's shape):
// body exempt, results tainted as fresh streams.
func CellSeed(base uint64, coords ...uint64) uint64 {
	s := base
	for _, c := range coords {
		s = mix64(s ^ mix64(c))
	}
	return s
}

// replicaSeed is PR 8's replica bug verbatim: replica r of base S
// replays replica 0 of base S+r.
func replicaSeed(opts Opts, replica uint64) uint64 {
	return opts.Seed + replica // want `arithmetic \(\+\) on a seed-derived value`
}

// synthSeed is PR 8's synthesis-harness bug verbatim.
func synthSeed(opts Opts) uint64 {
	return opts.Seed + 7 // want `arithmetic \(\+\) on a seed-derived value`
}

// injectorSeeds is PR 8's dual-channel injector bug verbatim.  One
// diagnostic per outermost derivation: seed*2+1 is one finding, not two.
func injectorSeeds(seed uint64) (uint64, uint64) {
	a := seed*2 + 1 // want `arithmetic \(\+\) on a seed-derived value`
	b := seed * 2   // want `arithmetic \(\*\) on a seed-derived value`
	return a, b
}

// salt mints a stream by XOR offset: same bug class.
func salt(seed uint64) uint64 {
	return seed ^ 0xD6E8FEB8 // want `arithmetic \(\^\) on a seed-derived value`
}

// spread shifts a seed: flagged.
func spread(opts Opts) uint64 {
	return opts.Seed << 1 // want `arithmetic \(<<\) on a seed-derived value`
}

// accumulate mutates a seed in place with a compound assignment.
func accumulate(seed uint64) uint64 {
	seed += 3 // want `arithmetic \(\+\) on a seed-derived value`
	return seed
}

// bump increments a seed.
func bump(seed uint64) uint64 {
	seed++ // want `arithmetic \(\+\) on a seed-derived value`
	return seed
}

// launch hands the seed to a helper whose parameter is named base: the
// taint follows the value across the call, not the name.
func launch(opts Opts) uint64 {
	return offset(opts.Seed)
}

// offset receives a tainted argument; the arithmetic is flagged here,
// in the callee, where the fix belongs.
func offset(base uint64) uint64 {
	return base + 1 // want `arithmetic \(\+\) on a seed-derived value`
}

// derived returns a blessed derivation; the result is itself a stream.
func derived(opts Opts) uint64 {
	return CellSeed(opts.Seed, 1)
}

// shifted offsets the derived stream: results of blessed helpers stay
// tainted through intermediate functions.
func shifted(opts Opts) uint64 {
	return derived(opts) + 3 // want `arithmetic \(\+\) on a seed-derived value`
}

// draw projects a bounded draw out of the stream with %: the projection
// launders the taint (this is the chaos harness's fault-draw shape), so
// the follow-on arithmetic is clean.
func draw(seed, span uint64) uint64 {
	d := CellSeed(seed, 9) % span
	return d + 3
}

// forward passes a seed through verbatim, conversion included: clean.
func forward(opts Opts) uint64 {
	return CellSeed(uint64(opts.Seed), 1, 2)
}

// count does arithmetic on an untainted integer field: clean.
func count(opts Opts) int {
	return opts.Count*2 + 1
}
