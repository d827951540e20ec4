package stats

import (
	"errors"
	"math"
	"math/rand"
)

// Weibull is a two-parameter Weibull distribution with shape K and scale
// Lambda. The paper fits a Weibull to the submission times of the CTC
// trace (Section 6.2); we use it for interarrival times of the
// probability-distribution workload.
type Weibull struct {
	K      float64 // shape, > 0
	Lambda float64 // scale, > 0
}

// Mean returns the distribution mean λ·Γ(1+1/k).
func (w Weibull) Mean() float64 {
	return w.Lambda * math.Gamma(1+1/w.K)
}

// Sample draws one value by inverse-transform sampling.
func (w Weibull) Sample(r *rand.Rand) float64 {
	// 1-U is uniform in (0,1]; avoids log(0).
	u := 1 - r.Float64()
	return w.Lambda * math.Pow(-math.Log(u), 1/w.K)
}

// CDF returns P(X <= x).
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-math.Pow(x/w.Lambda, w.K))
}

// ErrFitFailed is returned when the Weibull maximum-likelihood iteration
// does not converge or the input is degenerate.
var ErrFitFailed = errors.New("stats: weibull fit failed")

// FitWeibull estimates (K, Lambda) from positive samples by maximum
// likelihood. The shape equation
//
//	Σ x^k ln x / Σ x^k − 1/k − mean(ln x) = 0
//
// is solved by Newton iteration with a bisection fallback. Non-positive
// samples are rejected.
func FitWeibull(samples []float64) (Weibull, error) {
	if len(samples) < 2 {
		return Weibull{}, ErrFitFailed
	}
	var meanLog float64
	for _, x := range samples {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return Weibull{}, ErrFitFailed
		}
		meanLog += math.Log(x)
	}
	meanLog /= float64(len(samples))

	// (Nearly) identical samples: the MLE shape diverges; report a very
	// peaked distribution at the common value.
	var varLog float64
	for _, x := range samples {
		d := math.Log(x) - meanLog
		varLog += d * d
	}
	varLog /= float64(len(samples))
	if varLog < 1e-12 {
		return Weibull{K: 1e3, Lambda: math.Exp(meanLog)}, nil
	}

	// g(k) = Σ x^k ln x / Σ x^k − 1/k − meanLog. g is increasing in k.
	g := func(k float64) float64 {
		var sxk, sxkl float64
		for _, x := range samples {
			xk := math.Pow(x, k)
			sxk += xk
			sxkl += xk * math.Log(x)
		}
		if sxk == 0 || math.IsInf(sxk, 1) {
			return math.NaN()
		}
		return sxkl/sxk - 1/k - meanLog
	}

	// Bracket the root.
	lo, hi := 1e-3, 1.0
	for g(hi) < 0 {
		hi *= 2
		if hi > 1e4 {
			return Weibull{}, ErrFitFailed
		}
	}
	if v := g(lo); math.IsNaN(v) || v > 0 {
		// All samples (nearly) identical: g(lo) > 0 means an extremely
		// peaked distribution; report a large shape.
		if v > 0 {
			return Weibull{K: 1e3, Lambda: math.Exp(meanLog)}, nil
		}
		return Weibull{}, ErrFitFailed
	}
	// Bisection: robust, and 60 iterations give full float64 precision.
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		v := g(mid)
		if math.IsNaN(v) {
			return Weibull{}, ErrFitFailed
		}
		if v < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	k := (lo + hi) / 2

	// λ = (mean of x^k)^(1/k).
	var sxk float64
	for _, x := range samples {
		sxk += math.Pow(x, k)
	}
	lambda := math.Pow(sxk/float64(len(samples)), 1/k)
	if lambda <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return Weibull{}, ErrFitFailed
	}
	return Weibull{K: k, Lambda: lambda}, nil
}
