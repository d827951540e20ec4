package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeometricBounds(t *testing.T) {
	b := GeometricBounds(1, 2, 16)
	want := []int64{0, 1, 2, 4, 8, 16}
	if len(b) != len(want) {
		t.Fatalf("bounds = %v, want %v", b, want)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", b, want)
		}
	}
}

func TestGeometricBoundsNonIntegerGamma(t *testing.T) {
	b := GeometricBounds(10, 1.3, 100)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly ascending: %v", b)
		}
	}
	if b[len(b)-1] < 100 {
		t.Fatalf("bounds do not cover max: %v", b)
	}
}

func TestGeometricBoundsPanics(t *testing.T) {
	for _, c := range []struct {
		first, max int64
		gamma      float64
	}{
		{0, 10, 2}, {1, 10, 1}, {1, 10, 0.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for first=%d gamma=%v", c.first, c.gamma)
				}
			}()
			GeometricBounds(c.first, c.gamma, c.max)
		}()
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram([]int64{0, 10, 100, 1000})
	// ]0,10], ]10,100], ]100,1000]
	h.Add(1)    // bin 0
	h.Add(10)   // bin 0 (upper bound inclusive)
	h.Add(11)   // bin 1
	h.Add(100)  // bin 1
	h.Add(500)  // bin 2
	h.Add(9999) // clamps to last bin
	h.Add(-5)   // clamps to first bin
	wantCounts := []int64{3, 2, 2}
	for i, w := range wantCounts {
		if h.counts[i] != w {
			t.Errorf("bin %d count = %d, want %d", i, h.counts[i], w)
		}
	}
	if h.Total() != 7 {
		t.Errorf("Total = %d", h.Total())
	}
	if len(h.counts) != 3 {
		t.Errorf("bins = %d", len(h.counts))
	}
	lo, hi := h.BinBounds(1)
	if lo != 10 || hi != 100 {
		t.Errorf("BinBounds(1) = %d,%d", lo, hi)
	}
}

func TestHistogramSampleRespectsBins(t *testing.T) {
	h := NewHistogram([]int64{0, 10, 100})
	for i := 0; i < 50; i++ {
		h.Add(5)  // bin 0
		h.Add(50) // bin 1
	}
	r := NewRand(9)
	lowCount := 0
	n := 20000
	for i := 0; i < n; i++ {
		v := h.Sample(r)
		if v < 1 || v > 100 {
			t.Fatalf("sample %d outside all bins", v)
		}
		if v <= 10 {
			lowCount++
		}
	}
	frac := float64(lowCount) / float64(n)
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("low-bin fraction = %.3f, want ~0.5", frac)
	}
}

func TestHistogramEmptySamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic sampling empty histogram")
		}
	}()
	NewHistogram([]int64{0, 1}).Sample(NewRand(1))
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	for _, bounds := range [][]int64{{}, {1}, {1, 1}, {5, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for bounds %v", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram([]int64{0, 10, 100})
	h.Add(5)
	s := h.String()
	if !strings.Contains(s, "]0,10]=1") {
		t.Errorf("String = %q", s)
	}
}

func TestHistogramProbSumsToOne(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram(GeometricBounds(1, 2, 40000))
		for _, v := range vals {
			x := int64(v)
			if x < 0 {
				x = -x
			}
			h.Add(x + 1)
		}
		// Every observation lands in exactly one bin.
		var sum int64
		for _, c := range h.counts {
			sum += c
		}
		return sum == h.Total() && h.Total() == int64(len(vals))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJointHistogram(t *testing.T) {
	jh := NewJointHistogram(GeometricBounds(1, 2, 1024))
	jh.Add(4, 100, 50)
	jh.Add(4, 200, 150)
	jh.Add(16, 1000, 900)
	if jh.Total() != 3 {
		t.Fatalf("Total = %d", jh.Total())
	}
	if nodes := jh.nodeOrder; len(nodes) != 2 || nodes[0] != 4 || nodes[1] != 16 {
		t.Fatalf("node counts = %v", nodes)
	}
	r := NewRand(10)
	for i := 0; i < 5000; i++ {
		n, est, run := jh.Sample(r)
		if n != 4 && n != 16 {
			t.Fatalf("sampled unknown node count %d", n)
		}
		if run > est {
			t.Fatalf("sampled runtime %d > estimate %d", run, est)
		}
		if est <= 0 || run <= 0 {
			t.Fatalf("non-positive sample est=%d run=%d", est, run)
		}
	}
}

func TestJointHistogramEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewJointHistogram(GeometricBounds(1, 2, 4)).Sample(NewRand(1))
}
