package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	cases := []struct {
		p    float64
		want float64
	}{
		{1, 10}, {20, 10}, {21, 20}, {50, 30}, {60, 30}, {61, 40}, {95, 50}, {100, 50},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Nearest rank never interpolates: the answer is always a sample.
	if got := percentile([]float64{1, 1000}, 50); got != 1 {
		t.Errorf("p50 of two samples = %v, want the lower sample", got)
	}
}

func TestMedianOfRounds(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	// Four windows: neither middle window is preferred.
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	// One outlying round moves the mean a lot and the median not at all.
	if got := median([]float64{10, 10, 10, 10, 90}); got != 10 {
		t.Errorf("median with an outlier = %v, want 10", got)
	}
	s := summarize([]float64{10, 12, 11, 13, 50})
	if s.Value != 12 || s.N != 5 {
		t.Errorf("summarize = %+v, want median 12 over 5", s)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4) of Python 3, the method the acceptance procedure uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2, 4, 4, 5, 7, 9}, 3.5, 7.5},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5}, // two samples extrapolate, as Python does
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if s := summarize([]float64{90, 100, 110, 100, 100, 95, 105, 100, 100, 100}); math.Abs(s.spread()-0.025) > 1e-12 {
		t.Errorf("spread = %v, want 0.025", s.spread())
	}
}

func TestDurationsKeepExactTotals(t *testing.T) {
	var d durations
	for i := 1; i <= 5; i++ {
		d.add(int64(i * 100))
	}
	if d.count != 5 || d.total != 1500 || d.medianNS() != 300 {
		t.Errorf("durations = count %d total %d median %v", d.count, d.total, d.medianNS())
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping count once", []interval{{110, 150}, {130, 170}}, 40},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"sticking out is clipped", []interval{{50, 120}, {180, 400}}, 60},
		{"outside is ignored", []interval{{0, 50}, {300, 400}}, 100},
		{"covering everything", []interval{{100, 160}, {150, 200}}, 0},
		{"unsorted", []interval{{150, 170}, {110, 120}}, 70},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// selfByName sums the self time of all spans with the given name.
func (t *tracer) selfByName(name string) int64 {
	var total int64
	for _, s := range t.spans {
		if s.Name == name {
			total += s.Self
		}
	}
	return total
}

func TestTracerSelfByParent(t *testing.T) {
	tr := newTracer()
	root := tr.add("request", 0, 7, 0, 1000)
	store := tr.add("store", root, 7, 100, 900)
	tr.add("session", store, 7, 200, 300)
	tr.add("wal", store, 7, 250, 700) // overlaps session
	tr.finish()
	if got := tr.selfByName("request"); got != 200 {
		t.Errorf("request self = %d, want 200", got)
	}
	if got := tr.selfByName("store"); got != 300 {
		t.Errorf("store self = %d, want 300", got)
	}
	if got := tr.selfByName("wal"); got != 450 {
		t.Errorf("wal self = %d, want 450", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	tight := func(center float64) summary {
		return summarize([]float64{center * 0.99, center, center * 1.01, center, center * 1.005})
	}
	wide := func(center float64) summary {
		return summarize([]float64{center * 0.7, center * 0.9, center, center * 1.1, center * 1.3})
	}
	cases := []struct {
		name   string
		a, b   summary
		better string
		bound  float64
		want   string
	}{
		{"same", tight(100), tight(100), "lower", 0.1, "ok"},
		{"slower within the bound", tight(100), tight(108), "lower", 0.1, "ok"},
		{"slower beyond the bound", tight(100), tight(115), "lower", 0.1, "regressed"},
		{"faster is never a regression", tight(100), tight(50), "lower", 0.1, "ok"},
		{"throughput down beyond the bound", tight(100), tight(85), "higher", 0.1, "regressed"},
		{"throughput up", tight(100), tight(130), "higher", 0.1, "ok"},
		{"spread wider than the bound, runs interleaved", wide(100), wide(104), "lower", 0.1, "unresolved"},
		{"wide but strictly ordered and worse", wide(100), wide(300), "lower", 0.1, "regressed"},
		{"wide but strictly ordered and better", wide(300), wide(100), "lower", 0.1, "ok"},
	}
	for _, c := range cases {
		if _, got := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
