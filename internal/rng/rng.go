// Package rng provides a small, fast, deterministic pseudo-random number
// generator with support for splitting into independent streams.
//
// The distributed algorithms in this repository are randomized, and their
// simulations may execute nodes concurrently. To keep every run a pure
// function of its seed regardless of goroutine scheduling, each node derives
// its own stream from the run seed with Split. Splitting uses splitmix64 to
// whiten the (seed, index) pair into the 256-bit state of a xoshiro256**
// generator, following the recommendation of Blackman & Vigna.
package rng

import "math"

// splitmix64 advances a 64-bit state and returns the next output. It is used
// only for seeding: its outputs are well distributed even for adjacent
// inputs, which makes (seed, i) -> stream derivation safe.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a xoshiro256** pseudo-random generator. The zero value is not a
// valid source; construct with New or Split.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from the given 64-bit seed.
func New(seed uint64) *Source {
	var src Source
	src.reseed(seed)
	return &src
}

func (r *Source) reseed(seed uint64) {
	state := seed
	r.s0 = splitmix64(&state)
	r.s1 = splitmix64(&state)
	r.s2 = splitmix64(&state)
	r.s3 = splitmix64(&state)
	// xoshiro must not be seeded with the all-zero state; splitmix64 of any
	// seed never produces four zero outputs in a row, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
}

// Split derives an independent child stream identified by index. Two children
// with different indices, or children of different parents, behave as
// statistically independent generators.
func (r *Source) Split(index uint64) *Source {
	var child Source
	r.SplitInto(&child, index)
	return &child
}

// SplitInto reseeds child in place with the stream Split(index) would return,
// so run arenas can rederive per-node streams across runs without allocating
// a new Source per node per run.
func (r *Source) SplitInto(child *Source, index uint64) {
	// Mix the parent's current state with the index through splitmix64.
	state := r.s0 ^ (r.s2 << 1) ^ (index * 0x9e3779b97f4a7c15)
	child.reseed(splitmix64(&state))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Intn returns a uniform pseudo-random integer in [0, n). It panics if n <= 0,
// mirroring math/rand; callers always pass positive bounds.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and avoids division
	// in the common case.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo * bLo
	lo = t & mask32
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask32
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= t << 32
	hi = aHi*bHi + hiPart + (t >> 32)
	return hi, lo
}

// Float64 returns a uniform pseudo-random float in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n) using Fisher-Yates.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided swap
// function, via Fisher-Yates.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Geometric samples the number of failures before the first success of a
// Bernoulli(p) sequence, i.e. a geometric distribution on {0, 1, 2, ...}.
// It is used to skip over absent edges when generating G(n,p) graphs in
// expected O(np) time instead of O(n^2). The probability arrives as
// logq = math.Log1p(-p), which skip loops compute once per p rather than
// once per draw. p = 1 (logq = -Inf) returns 0 and p <= 0 (logq >= 0)
// returns MaxInt32, both without drawing.
func (r *Source) Geometric(logq float64) int {
	if math.IsInf(logq, -1) {
		return 0
	}
	if !(logq < 0) {
		return math.MaxInt32
	}
	u := r.Float64()
	// Guard against log(0).
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	k := math.Floor(math.Log(u) / logq)
	if k > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(k)
}
