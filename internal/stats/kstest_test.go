package stats

import (
	"math"
	"testing"
)

func TestKSStatisticIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if got := KSStatistic(a, a); got > 1e-12 {
		t.Errorf("KS of identical samples = %v", got)
	}
}

func TestKSStatisticDisjointSamples(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 20, 30}
	if got := KSStatistic(a, b); got != 1 {
		t.Errorf("KS of disjoint samples = %v, want 1", got)
	}
}

func TestKSStatisticEmpty(t *testing.T) {
	if !math.IsNaN(KSStatistic(nil, []float64{1})) {
		t.Error("empty sample must give NaN")
	}
}

func TestKSSameDistributionAcceptsSameSource(t *testing.T) {
	r := NewRand(1)
	w := Weibull{K: 1.3, Lambda: 50}
	a := make([]float64, 5000)
	b := make([]float64, 5000)
	for i := range a {
		a[i] = w.Sample(r)
		b[i] = w.Sample(r)
	}
	if KSStatistic(a, b) > KSCriticalValue(len(a), len(b), 0.01) {
		t.Error("same-distribution samples rejected at α=0.01")
	}
}

func TestKSSameDistributionRejectsDifferentSources(t *testing.T) {
	r := NewRand(2)
	w1 := Weibull{K: 1.3, Lambda: 50}
	w2 := Weibull{K: 1.3, Lambda: 120}
	a := make([]float64, 5000)
	b := make([]float64, 5000)
	for i := range a {
		a[i] = w1.Sample(r)
		b[i] = w2.Sample(r)
	}
	if KSStatistic(a, b) <= KSCriticalValue(len(a), len(b), 0.01) {
		t.Error("clearly different distributions accepted")
	}
}

func TestKSCriticalValueShrinksWithN(t *testing.T) {
	small := KSCriticalValue(100, 100, 0.05)
	large := KSCriticalValue(10000, 10000, 0.05)
	if large >= small {
		t.Errorf("critical value must shrink with n: %v vs %v", small, large)
	}
	if !math.IsNaN(KSCriticalValue(0, 10, 0.05)) {
		t.Error("bad n must give NaN")
	}
	if !math.IsNaN(KSCriticalValue(10, 10, 0)) {
		t.Error("bad alpha must give NaN")
	}
}

func TestKSAgainstCDFWeibullFit(t *testing.T) {
	r := NewRand(3)
	w := Weibull{K: 2, Lambda: 100}
	sample := make([]float64, 10000)
	for i := range sample {
		sample[i] = w.Sample(r)
	}
	d := KSAgainstCDF(sample, w.CDF)
	// One-sample critical value at α=0.01 ≈ 1.63/sqrt(n).
	crit := 1.63 / math.Sqrt(float64(len(sample)))
	if d > crit {
		t.Errorf("KS against own CDF = %v > critical %v", d, crit)
	}
	// A wrong CDF must fail clearly.
	wrong := Weibull{K: 2, Lambda: 300}
	if KSAgainstCDF(sample, wrong.CDF) < 5*crit {
		t.Error("wrong CDF not detected")
	}
	if !math.IsNaN(KSAgainstCDF(nil, w.CDF)) {
		t.Error("empty sample must give NaN")
	}
}
