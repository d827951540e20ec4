package stats

import (
	"math"
	"sort"
)

// KSStatistic returns the two-sample Kolmogorov–Smirnov statistic: the
// maximum absolute difference between the empirical CDFs of a and b.
// The paper's Section 6.2 requires that "conformity with future real job
// data is essential and must be verified" — this is the verification
// instrument used by the workload-model tests.
func KSStatistic(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.NaN()
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	var (
		i, j int
		d    float64
	)
	for i < len(as) && j < len(bs) {
		// Advance both CDFs past the smaller value, consuming ties on
		// both sides before comparing (ties otherwise inflate D).
		x := as[i]
		if bs[j] < x {
			x = bs[j]
		}
		for i < len(as) && as[i] <= x {
			i++
		}
		for j < len(bs) && bs[j] <= x {
			j++
		}
		fa := float64(i) / float64(len(as))
		fb := float64(j) / float64(len(bs))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d
}

// KSCriticalValue returns the approximate critical D for rejecting the
// null hypothesis (same distribution) at significance alpha in a
// two-sample test with sizes n and m:
//
//	c(α)·sqrt((n+m)/(n·m)),  c(α) = sqrt(-ln(α/2)/2).
func KSCriticalValue(n, m int, alpha float64) float64 {
	if n <= 0 || m <= 0 || alpha <= 0 || alpha >= 1 {
		return math.NaN()
	}
	c := math.Sqrt(-math.Log(alpha/2) / 2)
	return c * math.Sqrt(float64(n+m)/float64(n*m))
}

// KSAgainstCDF returns the one-sample KS statistic of a sample against a
// theoretical CDF — used to verify the Weibull fit of the submission
// process.
func KSAgainstCDF(sample []float64, cdf func(float64) float64) float64 {
	if len(sample) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	n := float64(len(s))
	var d float64
	for i, x := range s {
		f := cdf(x)
		lo := float64(i) / n
		hi := float64(i+1) / n
		if diff := math.Abs(f - lo); diff > d {
			d = diff
		}
		if diff := math.Abs(f - hi); diff > d {
			d = diff
		}
	}
	return d
}
