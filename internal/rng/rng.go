// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// The simulator must produce bit-identical workload traces across runs and
// across Go releases, so it cannot depend on math/rand (whose stream is not
// guaranteed stable between versions). The implementation is splitmix64
// (Steele, Lea, Flood; public domain), which passes BigCrush and is more
// than random enough for workload synthesis.
package rng

// RNG is a deterministic splitmix64 generator. The zero value is a valid
// generator seeded with 0; prefer New to make seeding explicit.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. Distinct seeds yield
// independent-looking streams.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Seed resets the generator to the given seed.
func (r *RNG) Seed(seed uint64) { r.state = seed }

// gamma is splitmix64's state increment per draw.
const gamma = 0x9e3779b97f4a7c15

// Skip advances the generator past n draws in O(1): every Uint64 (and so
// every Float64, and every Bool with 0 < p < 1) adds gamma to the state
// and nothing else, so n draws add n*gamma.
func (r *RNG) Skip(n uint64) { r.state += n * gamma }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high-quality bits -> [0,1) with full float53 resolution.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns a sample from a geometric distribution with mean mean
// (support {1, 2, 3, ...}). Used for dependency distances and run lengths.
// mean must be >= 1; values are capped at max if max > 0.
func (r *RNG) Geometric(mean float64, max int) int {
	if mean <= 1 {
		return 1
	}
	// P(success) per trial so that E = 1/p = mean.
	p := 1 / mean
	n := 1
	for !r.Bool(p) {
		n++
		if max > 0 && n >= max {
			return max
		}
	}
	return n
}

// Range returns a uniform int in [lo, hi] inclusive. Panics if hi < lo.
func (r *RNG) Range(lo, hi int) int {
	if hi < lo {
		panic("rng: Range called with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Pick returns an index in [0, len(weights)) with probability proportional
// to the weights. Weights must be non-negative and not all zero.
func (r *RNG) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("rng: Pick with non-positive total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Fork returns a new generator whose stream is decorrelated from r but is a
// deterministic function of r's seed and the label. Use it to derive
// independent sub-streams (for example a wrong-path stream) from one seed.
func (r *RNG) Fork(label uint64) *RNG {
	// Hash the current state with the label through one splitmix round.
	z := r.state ^ (label * 0xda942042e4dd58b5)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return New(z ^ (z >> 31))
}
