package stats

import (
	"math"
	"math/rand"
)

// Exponential samples from an exponential distribution with the given mean.
func Exponential(r *rand.Rand, mean float64) float64 {
	return r.ExpFloat64() * mean
}

// LogUniform returns a value whose logarithm is uniform in [log lo, log hi].
// Job runtimes in parallel workloads span several orders of magnitude and
// are well served by this shape. Panics if lo <= 0 or hi < lo.
func LogUniform(r *rand.Rand, lo, hi float64) float64 {
	if lo <= 0 || hi < lo {
		panic("stats: LogUniform requires 0 < lo <= hi")
	}
	return lo * math.Exp(r.Float64()*math.Log(hi/lo))
}

// Discrete is an empirical discrete distribution over arbitrary integer
// values with explicit probabilities. Used for node-count distributions
// with power-of-two spikes.
type Discrete struct {
	values []int64
	cum    []float64 // cumulative probabilities, last = 1
}

// NewDiscrete builds a discrete distribution from parallel slices of
// values and non-negative weights (not necessarily normalized). Panics on
// length mismatch, empty input, or all-zero weights.
func NewDiscrete(values []int64, weights []float64) *Discrete {
	if len(values) == 0 || len(values) != len(weights) {
		panic("stats: NewDiscrete needs equal, non-empty values/weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("stats: NewDiscrete weight must be >= 0")
		}
		total += w
	}
	if total == 0 {
		panic("stats: NewDiscrete total weight is zero")
	}
	d := &Discrete{
		values: append([]int64(nil), values...),
		cum:    make([]float64, len(weights)),
	}
	var run float64
	for i, w := range weights {
		run += w / total
		d.cum[i] = run
	}
	d.cum[len(d.cum)-1] = 1
	return d
}

// Sample draws one value.
func (d *Discrete) Sample(r *rand.Rand) int64 {
	u := r.Float64()
	// Binary search the cumulative table.
	lo, hi := 0, len(d.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return d.values[lo]
}

// Len returns the number of distinct values.
func (d *Discrete) Len() int { return len(d.values) }
