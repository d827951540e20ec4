package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUniformIntBounds(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10000; i++ {
		v := UniformInt(r, 5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("UniformInt out of range: %d", v)
		}
	}
	// Degenerate range.
	if v := UniformInt(r, 7, 7); v != 7 {
		t.Fatalf("UniformInt(7,7) = %d", v)
	}
}

func TestUniformIntPanicsOnInvertedRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for hi < lo")
		}
	}()
	UniformInt(NewRand(1), 10, 5)
}

func TestUniformIntCoversRange(t *testing.T) {
	r := NewRand(4)
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		seen[UniformInt(r, 0, 3)] = true
	}
	for v := int64(0); v <= 3; v++ {
		if !seen[v] {
			t.Errorf("value %d never sampled", v)
		}
	}
}

func TestLogUniformBoundsAndShape(t *testing.T) {
	r := NewRand(6)
	lo, hi := 10.0, 10000.0
	belowGeoMean := 0
	n := 50000
	geoMean := math.Sqrt(lo * hi)
	for i := 0; i < n; i++ {
		v := LogUniform(r, lo, hi)
		if v < lo || v > hi {
			t.Fatalf("LogUniform out of range: %v", v)
		}
		if v < geoMean {
			belowGeoMean++
		}
	}
	// Log-uniform: exactly half the mass below the geometric mean.
	frac := float64(belowGeoMean) / float64(n)
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("mass below geometric mean = %.3f, want ~0.5", frac)
	}
}

func TestLogUniformPanics(t *testing.T) {
	for _, c := range [][2]float64{{0, 1}, {-1, 1}, {5, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for lo=%v hi=%v", c[0], c[1])
				}
			}()
			LogUniform(NewRand(1), c[0], c[1])
		}()
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRand(7)
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		sum += Exponential(r, 250)
	}
	mean := sum / float64(n)
	if math.Abs(mean-250)/250 > 0.02 {
		t.Errorf("exponential mean = %v, want ~250", mean)
	}
}

func TestDiscreteProbabilities(t *testing.T) {
	// The weights are normalized into a cumulative table.
	d := NewDiscrete([]int64{1, 2, 4}, []float64{1, 1, 2})
	for i, want := range []float64{0.25, 0.5, 1} {
		if math.Abs(d.cum[i]-want) > 1e-12 {
			t.Errorf("cum[%d] = %v, want %v", i, d.cum[i], want)
		}
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestDiscreteSamplingMatchesWeights(t *testing.T) {
	d := NewDiscrete([]int64{10, 20, 30}, []float64{0.2, 0.3, 0.5})
	r := NewRand(8)
	counts := map[int64]int{}
	n := 100000
	for i := 0; i < n; i++ {
		counts[d.Sample(r)]++
	}
	for v, want := range map[int64]float64{10: 0.2, 20: 0.3, 30: 0.5} {
		got := float64(counts[v]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("value %d frequency %.3f, want %.3f", v, got, want)
		}
	}
}

func TestDiscretePanics(t *testing.T) {
	cases := []struct {
		name    string
		values  []int64
		weights []float64
	}{
		{"empty", nil, nil},
		{"mismatch", []int64{1}, []float64{1, 2}},
		{"negative", []int64{1, 2}, []float64{1, -1}},
		{"all zero", []int64{1, 2}, []float64{0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			NewDiscrete(tc.values, tc.weights)
		})
	}
}

func TestDiscreteSampleOnlyReturnsValues(t *testing.T) {
	f := func(seed int64) bool {
		d := NewDiscrete([]int64{-5, 0, 7}, []float64{1, 2, 3})
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			switch d.Sample(r) {
			case -5, 0, 7:
			default:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	a := Split(42, 1)
	b := Split(42, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d identical draws from split streams", same)
	}
	// Determinism: same seed/stream → same sequence.
	c, d := Split(42, 1), Split(42, 1)
	for i := 0; i < 100; i++ {
		if c.Int63() != d.Int63() {
			t.Fatal("Split is not deterministic")
		}
	}
}
