// Package fault implements the transient-fault models used by the paper's
// evaluation.
//
// The paper's fault model is derived from the IEC 61508 functional-safety
// standard: transmissions fail transiently (radiation, interference,
// temperature variation) and the probability that a frame of W bits is
// corrupted at a given bit error rate is
//
//	p = 1 − (1 − BER)^W.
//
// This package substitutes the Vector/Elektrobit fault-injection tooling of
// the paper's testbed with a deterministic, seeded injector so experiments
// are exactly reproducible.  Time-varying profiles overlay BER steps and
// ramps, and their burst windows run a Gilbert–Elliott two-state model
// that captures bursty interference.
package fault

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**), seeded via splitmix64.  It is NOT safe for concurrent use;
// give each injector its own instance.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed re-initializes the generator in place, exactly as NewRNG(seed)
// would: the draw stream after Seed(s) is identical to a fresh
// generator's.  In-place reseeding is what lets batched replica runs
// reuse one generator per state instead of allocating one per replica.
//
//perf:hotpath
func (r *RNG) Seed(seed uint64) {
	// splitmix64 seeding, as recommended by the xoshiro authors.
	x := seed
	for i := range r.s {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		r.s[i] = z ^ z>>31
	}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n).  It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("fault: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Fork returns an independent generator derived from this one.  Use it to
// give subsystems their own streams without correlating their draws.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}

func rotl(x uint64, k uint) uint64 {
	return x<<k | x>>(64-k)
}
