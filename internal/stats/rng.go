// Package stats provides the statistical substrate of the workload
// generators and the evaluation harness: seeded random sources,
// parametric distributions (Weibull, exponential, log-uniform),
// empirical binned distributions, nonhomogeneous Poisson arrival
// processes and descriptive statistics.
//
// Every randomized component takes an explicit *rand.Rand so that all
// experiments are reproducible bit-for-bit from a seed.
package stats

import "math/rand"

// NewRand returns a deterministic random source for the given seed.
// All workload generators and examples derive their randomness from it.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Split derives an independent deterministic source from a parent seed and
// a stream index, so multi-stream generators (arrivals, sizes, runtimes)
// can be varied independently.
func Split(seed int64, stream int64) *rand.Rand {
	// SplitMix64-style mixing keeps the derived seeds well separated even
	// for adjacent stream indices.
	z := uint64(seed) + uint64(stream)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// UniformInt returns an integer uniformly distributed in [lo, hi].
// It panics if hi < lo.
func UniformInt(r *rand.Rand, lo, hi int64) int64 {
	if hi < lo {
		panic("stats: UniformInt with hi < lo")
	}
	return lo + r.Int63n(hi-lo+1)
}
