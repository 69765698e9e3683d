// Package randx provides the seeded random variates used throughout the
// simulator and the live runtime: exponential and Poisson sampling, uniform
// choice, permutation sampling, and GF(2^8) coefficient drawing.
//
// All entry points operate on an explicit *Rand so that every simulation run
// is reproducible from its seed; there is no package-level global state.
package randx

import (
	"math"
	"math/rand"
)

// Rand is a deterministic source of the variates used by the protocol and
// the simulator. It wraps math/rand with the domain-specific samplers.
type Rand struct {
	src *rand.Rand
}

// New returns a Rand seeded with the given seed.
func New(seed int64) *Rand {
	return &Rand{src: rand.New(rand.NewSource(seed))}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Rand) Int63() int64 { return r.src.Int63() }

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *Rand) Intn(n int) int { return r.src.Intn(n) }

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// Exp returns an exponential variate with the given rate (mean 1/rate).
// A non-positive rate returns +Inf, modelling an event that never fires.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return r.src.ExpFloat64() / rate
}

// Poisson returns a Poisson variate with the given mean. It uses Knuth's
// multiplication method for small means and a normal approximation with
// continuity correction above 30, which is accurate to well under a percent
// for the block-count draws it serves.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		k := math.Round(mean + math.Sqrt(mean)*r.src.NormFloat64())
		if k < 0 {
			return 0
		}
		return int(k)
	}
	limit := math.Exp(-mean)
	p := 1.0
	n := 0
	for {
		p *= r.src.Float64()
		if p <= limit {
			return n
		}
		n++
	}
}

// Coefficient returns a uniformly random non-zero GF(2^8) element. Non-zero
// coefficients keep every re-encoded block dependent on the entire buffered
// basis, which slightly improves innovation probability at no cost.
func (r *Rand) Coefficient() byte {
	return byte(1 + r.src.Intn(255))
}

// FillCoefficients fills dst with uniformly random GF(2^8) elements
// (including zero), the distribution assumed by the paper's random linear
// code.
func (r *Rand) FillCoefficients(dst []byte) {
	for i := range dst {
		dst[i] = byte(r.src.Intn(256))
	}
}

// Choose returns a uniform element of [0, n) excluding the given value. It
// panics if n < 2 when exclude is inside [0, n), since no valid choice would
// exist. Pass a negative exclude to disable exclusion.
func (r *Rand) Choose(n, exclude int) int {
	if exclude < 0 || exclude >= n {
		return r.src.Intn(n)
	}
	if n < 2 {
		panic("randx: Choose with no candidates")
	}
	v := r.src.Intn(n - 1)
	if v >= exclude {
		v++
	}
	return v
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool { return r.src.Float64() < p }

// Fork returns a new Rand deterministically derived from this one. Use it to
// give subsystems independent streams that are still fully determined by the
// parent seed.
func (r *Rand) Fork() *Rand {
	return New(r.src.Int63())
}
