package fault

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Common errors.
var (
	// ErrBadBER is returned for bit error rates outside [0, 1).
	ErrBadBER = errors.New("fault: BER must be in [0, 1)")
	// ErrBadBits is returned for non-positive frame sizes.
	ErrBadBits = errors.New("fault: frame size must be positive")
)

// FrameFailureProb returns the probability that a frame of `bits` bits is
// corrupted at bit error rate `ber`:
//
//	p = 1 − (1 − BER)^bits.
//
// Computed as -expm1(bits * log1p(-ber)) for numerical stability at the very
// small BERs (1e-7, 1e-9) the paper uses.
func FrameFailureProb(ber float64, bits int) (float64, error) {
	if !(ber >= 0 && ber < 1) { // the negated range test also rejects NaN
		return 0, fmt.Errorf("%w: %g", ErrBadBER, ber)
	}
	if bits <= 0 {
		return 0, fmt.Errorf("%w: %d", ErrBadBits, bits)
	}
	if ber == 0 {
		return 0, nil
	}
	return -math.Expm1(float64(bits) * math.Log1p(-ber)), nil
}

// probCacheMaxBits bounds the frame sizes memoized by probCache; larger
// frames fall back to computing the probability directly.
const probCacheMaxBits = 1 << 14

// probCache memoizes FrameFailureProb for one fixed BER, indexed densely by
// frame size.  A workload uses only a handful of distinct wire sizes, so the
// expm1/log1p evaluation — which dominated the simulation hot path — runs
// once per size instead of once per transmission.  The cached value is the
// exact float FrameFailureProb returns, so the injector's Bernoulli draw
// stream is bit-identical with and without the cache.
type probCache struct {
	p    []float64
	seen []bool
}

func (c *probCache) prob(ber float64, bits int) (float64, error) {
	if bits >= probCacheMaxBits {
		return FrameFailureProb(ber, bits)
	}
	if bits >= len(c.p) {
		np := make([]float64, bits+1)
		ns := make([]bool, bits+1)
		copy(np, c.p)
		copy(ns, c.seen)
		c.p, c.seen = np, ns
	}
	if c.seen[bits] {
		return c.p[bits], nil
	}
	p, err := FrameFailureProb(ber, bits)
	if err != nil {
		return 0, err
	}
	c.p[bits] = p
	c.seen[bits] = true
	return p, nil
}

// Injector decides, per transmission, whether a transient fault corrupts the
// frame.  Implementations must be deterministic given their seed.
type Injector interface {
	// Corrupts reports whether a transmission of `bits` bits is corrupted.
	Corrupts(bits int) bool
	// Stats returns cumulative injection statistics.
	Stats() Stats
}

// Reseeder is implemented by injectors that can be returned to their
// just-constructed state under a new seed without reallocating.  After
// Reseed(s) the injector's draw stream and statistics are
// indistinguishable from a freshly constructed injector with the same
// configuration and seed s; memoized failure-probability caches are
// retained, which is exactly why batched replica runs prefer reseeding
// an existing injector over building a new one per replica.
type Reseeder interface {
	Reseed(seed uint64)
}

// Stats summarizes an injector's history.
type Stats struct {
	// Transmissions is the total number of transmissions examined.
	Transmissions int64
	// Faults is the number of corrupted transmissions.
	Faults int64
}

// Rate returns the observed fault rate, or 0 for an empty history.
func (s Stats) Rate() float64 {
	if s.Transmissions == 0 {
		return 0
	}
	return float64(s.Faults) / float64(s.Transmissions)
}

// BERInjector injects independent transient faults with the paper's
// per-frame probability 1-(1-BER)^bits.
type BERInjector struct {
	mu    sync.Mutex
	ber   float64
	rng   *RNG
	stats Stats
	cache probCache
}

var _ Injector = (*BERInjector)(nil)

// NewBERInjector returns an injector for the given bit error rate and seed.
func NewBERInjector(ber float64, seed uint64) (*BERInjector, error) {
	if !(ber >= 0 && ber < 1) {
		return nil, fmt.Errorf("%w: %g", ErrBadBER, ber)
	}
	return &BERInjector{ber: ber, rng: NewRNG(seed)}, nil
}

// Corrupts implements Injector.
func (b *BERInjector) Corrupts(bits int) bool {
	if bits <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p, err := b.cache.prob(b.ber, bits)
	if err != nil {
		return false
	}
	b.stats.Transmissions++
	hit := b.rng.Bernoulli(p)
	if hit {
		b.stats.Faults++
	}
	return hit
}

// Stats implements Injector.
func (b *BERInjector) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// BER returns the configured bit error rate.
func (b *BERInjector) BER() float64 { return b.ber }

// Reseed implements Reseeder: statistics reset, RNG re-seeded in place,
// probability cache retained (cached values are the exact floats
// FrameFailureProb returns, so retention cannot perturb the draws).
func (b *BERInjector) Reseed(seed uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rng.Seed(seed)
	b.stats = Stats{}
}

var _ Reseeder = (*BERInjector)(nil)

// None is an injector that never corrupts anything (a fault-free bus).
type None struct {
	mu    sync.Mutex
	stats Stats
}

var _ Injector = (*None)(nil)

// Corrupts implements Injector.
func (n *None) Corrupts(bits int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.Transmissions++
	return false
}

// Stats implements Injector.
func (n *None) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Reseed implements Reseeder.  A fault-free bus has no random state;
// only the transmission counter is cleared.
func (n *None) Reseed(uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = Stats{}
}

var _ Reseeder = (*None)(nil)
