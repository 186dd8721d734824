// Package randx provides deterministic, splittable pseudo-random number
// generation for the simulator and the experiments.
//
// Every source of randomness in this repository (sensor noise, radio loss,
// MAC backoff, workload arrival times) is derived from an explicit seed via
// this package, so repeated runs are bit-identical. The generator is a
// xoshiro256** seeded through SplitMix64, following Blackman & Vigna.
package randx

import "math"

// RNG is a deterministic pseudo-random number generator. The zero value is
// not valid; construct with New or Split.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64 so that nearby
// seeds yield uncorrelated streams.
func New(seed uint64) *RNG {
	var r RNG
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not be seeded with all zeros.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return &r
}

// Split derives an independent generator from r, keyed by label. The parent
// stream advances by one draw. Use Split to give each subsystem (medium,
// node 3's sensor, ...) its own stream so adding draws in one subsystem does
// not perturb another.
func (r *RNG) Split(label uint64) *RNG {
	return New(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

// Uint64 returns the next 64 uniformly random bits.
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

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("randx: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded draws.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Int63n returns a uniformly random int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("randx: Int63n with non-positive n")
	}
	return int64(uint64(r.Intn(int(n))))
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box-Muller, polar form).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + w1>>32
	lo = a * b
	return hi, lo
}
