package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It never interpolates, so the result is always a measured value.
// xs is not modified; an empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle samples of
// an even-sized input (the median-of-rounds statistic: with 4 windows
// or 6 rounds neither middle sample should be preferred).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the method of
// Python's statistics.quantiles(xs, n=4) (exclusive, interpolating at
// positions (n+1)/4 and 3(n+1)/4), so spreads printed here are the ones
// the acceptance procedure computes. Fewer than two samples have no
// spread: both quartiles equal the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// summary condenses the per-round (or per-window) samples of one
// metric: the reported value is their median, the spread their quartile
// distance.
type summary struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	// Samples are the values the summary was taken over; -compare pools
	// them across files.
	Samples []float64 `json:"samples"`
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Value: median(xs), Q1: q1, Q3: q3, N: len(xs), Samples: append([]float64(nil), xs...)}
}

// one wraps a metric measured once per run.
func one(v float64) summary { return summarize([]float64{v}) }

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
}

// durations collects per-call times in nanoseconds. Calls are counted
// exactly; at most durCap times are kept for the median (a million
// samples place it far inside the clock's resolution), the total stays
// exact.
type durations struct {
	ns    []uint32
	count int64
	total int64
}

const durCap = 1 << 20

func (d *durations) add(ns int64) {
	d.count++
	d.total += ns
	if len(d.ns) < durCap {
		if ns > math.MaxUint32 {
			ns = math.MaxUint32
		}
		d.ns = append(d.ns, uint32(ns))
	}
}

func (d *durations) medianNS() float64 {
	if len(d.ns) == 0 {
		return 0
	}
	s := slices.Clone(d.ns)
	slices.Sort(s)
	return float64(s[(len(s)-1)/2])
}
