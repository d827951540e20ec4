package stats

import (
	"math"
	"testing"
)

func TestWeibullMeanVar(t *testing.T) {
	// k = 1 reduces to the exponential distribution: mean = λ.
	w := Weibull{K: 1, Lambda: 42}
	if got := w.Mean(); math.Abs(got-42) > 1e-9 {
		t.Errorf("Mean = %v, want 42", got)
	}
}

func TestWeibullCDF(t *testing.T) {
	w := Weibull{K: 2, Lambda: 10}
	if got := w.CDF(-5); got != 0 {
		t.Errorf("CDF(-5) = %v", got)
	}
	if got := w.CDF(0); got != 0 {
		t.Errorf("CDF(0) = %v", got)
	}
	// At x = λ the CDF is 1 - 1/e regardless of shape.
	want := 1 - math.Exp(-1)
	if got := w.CDF(10); math.Abs(got-want) > 1e-12 {
		t.Errorf("CDF(λ) = %v, want %v", got, want)
	}
	if got := w.CDF(1e9); got < 0.999999 {
		t.Errorf("CDF(large) = %v", got)
	}
}

func TestWeibullSampleMoments(t *testing.T) {
	r := NewRand(11)
	w := Weibull{K: 1.5, Lambda: 100}
	n := 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := w.Sample(r)
		if x < 0 {
			t.Fatal("negative Weibull sample")
		}
		sum += x
	}
	mean := sum / float64(n)
	if rel := math.Abs(mean-w.Mean()) / w.Mean(); rel > 0.02 {
		t.Errorf("sample mean %v deviates %.1f%% from %v", mean, rel*100, w.Mean())
	}
}

func TestFitWeibullRecoversParameters(t *testing.T) {
	cases := []Weibull{
		{K: 0.7, Lambda: 50},
		{K: 1.0, Lambda: 500},
		{K: 2.5, Lambda: 10},
	}
	r := NewRand(5)
	for _, want := range cases {
		samples := make([]float64, 50000)
		for i := range samples {
			samples[i] = want.Sample(r)
		}
		got, err := FitWeibull(samples)
		if err != nil {
			t.Fatalf("fit %v: %v", want, err)
		}
		if rel := math.Abs(got.K-want.K) / want.K; rel > 0.05 {
			t.Errorf("K: got %v, want %v (%.1f%% off)", got.K, want.K, rel*100)
		}
		if rel := math.Abs(got.Lambda-want.Lambda) / want.Lambda; rel > 0.05 {
			t.Errorf("Lambda: got %v, want %v (%.1f%% off)", got.Lambda, want.Lambda, rel*100)
		}
	}
}

func TestFitWeibullRejectsBadInput(t *testing.T) {
	if _, err := FitWeibull(nil); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := FitWeibull([]float64{1}); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := FitWeibull([]float64{1, -2, 3}); err == nil {
		t.Error("negative sample accepted")
	}
	if _, err := FitWeibull([]float64{1, 0}); err == nil {
		t.Error("zero sample accepted")
	}
	if _, err := FitWeibull([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN sample accepted")
	}
	if _, err := FitWeibull([]float64{1, math.Inf(1)}); err == nil {
		t.Error("Inf sample accepted")
	}
}

func TestFitWeibullDegenerateIdentical(t *testing.T) {
	// All-identical samples: an extremely peaked distribution; the fit
	// must not fail and must report a large shape near the common value.
	w, err := FitWeibull([]float64{7, 7, 7, 7})
	if err != nil {
		t.Fatalf("identical samples: %v", err)
	}
	if w.K < 100 {
		t.Errorf("identical samples should give a very large shape, got K=%v", w.K)
	}
	if math.Abs(w.Lambda-7) > 0.5 {
		t.Errorf("Lambda = %v, want near 7", w.Lambda)
	}
}
