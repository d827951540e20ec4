package stats

import (
	"fmt"
	"math/rand"
	"sort"
)

// Histogram is an empirical distribution over half-open ranges ]lo, hi]
// (the paper's bin convention for execution-time classes). It supports
// both counting observed values and sampling new ones: a sample picks a
// bin by its probability and then a uniform value inside the bin. This is
// exactly the Section 6.2 mechanism ("bins are created ... probability
// values are calculated for each bin ... randomized values are used and
// associated to the bins according to their probability").
type Histogram struct {
	bounds []int64 // bin i covers ]bounds[i], bounds[i+1]]
	counts []int64
	total  int64
}

// NewHistogram creates a histogram with the given ascending bin bounds.
// There are len(bounds)-1 bins; at least one bin is required.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) < 2 {
		panic("stats: NewHistogram needs at least two bounds")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: NewHistogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]int64, len(bounds)-1),
	}
}

// GeometricBounds returns bounds 0, first, first·γ, first·γ², … covering
// at least max. It is used for execution-time bins (SMART uses the same
// sequence with γ = 2).
func GeometricBounds(first int64, gamma float64, max int64) []int64 {
	if first <= 0 || gamma <= 1 {
		panic("stats: GeometricBounds requires first > 0 and gamma > 1")
	}
	bounds := []int64{0, first}
	cur := float64(first)
	for bounds[len(bounds)-1] < max {
		cur *= gamma
		next := int64(cur)
		if next <= bounds[len(bounds)-1] {
			next = bounds[len(bounds)-1] + 1
		}
		bounds = append(bounds, next)
	}
	return bounds
}

// Add counts one observation. Values at or below the lowest bound go to
// the first bin; values above the highest bound go to the last bin.
func (h *Histogram) Add(v int64) {
	h.counts[h.binOf(v)]++
	h.total++
}

func (h *Histogram) binOf(v int64) int {
	// Find the first bound >= v; the value belongs to the bin ending there.
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	switch {
	case i <= 0:
		return 0
	case i >= len(h.bounds):
		return len(h.counts) - 1
	default:
		return i - 1
	}
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 { return h.total }

// BinBounds returns (lo, hi] for bin i.
func (h *Histogram) BinBounds(i int) (lo, hi int64) {
	return h.bounds[i], h.bounds[i+1]
}

// Sample draws a value: pick a bin proportionally to its count, then a
// uniform integer within ]lo, hi]. Returns an error-free value; panics if
// the histogram is empty.
func (h *Histogram) Sample(r *rand.Rand) int64 {
	if h.total == 0 {
		panic("stats: Sample from empty histogram")
	}
	pick := r.Int63n(h.total)
	var run int64
	for i, c := range h.counts {
		run += c
		if pick < run {
			lo, hi := h.BinBounds(i)
			return UniformInt(r, lo+1, hi)
		}
	}
	// Unreachable: counts sum to total.
	panic("stats: histogram sampling overran bins")
}

// String renders a compact textual summary.
func (h *Histogram) String() string {
	s := fmt.Sprintf("histogram(%d obs):", h.total)
	for i := range h.counts {
		if h.counts[i] == 0 {
			continue
		}
		lo, hi := h.BinBounds(i)
		s += fmt.Sprintf(" ]%d,%d]=%d", lo, hi, h.counts[i])
	}
	return s
}

// JointHistogram models the paper's conditional bin structure: for every
// possible node count a histogram of the requested time, and for every
// (node count, requested-time bin) a histogram of the actual runtime.
// Sampling draws the node count from its empirical distribution, the
// estimate from the node count's bins, and the runtime from the bins
// conditioned on the estimate — preserving both the width/length and the
// estimate/runtime correlation of the source trace.
type JointHistogram struct {
	nodes     map[int]int64 // node count -> observations
	nodeOrder []int         // deterministic iteration order
	estimate  map[int]*Histogram
	// runtime is keyed by (node count, estimate bin index).
	runtime map[int]map[int]*Histogram
	total   int64
	bounds  []int64
}

// NewJointHistogram creates an empty joint histogram using the given time
// bin bounds for both the estimate and the runtime dimension.
func NewJointHistogram(timeBounds []int64) *JointHistogram {
	return &JointHistogram{
		nodes:    make(map[int]int64),
		estimate: make(map[int]*Histogram),
		runtime:  make(map[int]map[int]*Histogram),
		bounds:   append([]int64(nil), timeBounds...),
	}
}

// Add records one job observation.
func (jh *JointHistogram) Add(nodes int, estimate, runtime int64) {
	if _, ok := jh.nodes[nodes]; !ok {
		jh.nodeOrder = append(jh.nodeOrder, nodes)
		sort.Ints(jh.nodeOrder)
		jh.estimate[nodes] = NewHistogram(jh.bounds)
		jh.runtime[nodes] = make(map[int]*Histogram)
	}
	jh.nodes[nodes]++
	jh.estimate[nodes].Add(estimate)
	eb := jh.estimate[nodes].binOf(estimate)
	rh, ok := jh.runtime[nodes][eb]
	if !ok {
		rh = NewHistogram(jh.bounds)
		jh.runtime[nodes][eb] = rh
	}
	rh.Add(runtime)
	jh.total++
}

// Total returns the number of observations.
func (jh *JointHistogram) Total() int64 { return jh.total }

// Sample draws (nodes, estimate, runtime) with runtime <= estimate
// enforced (a residual within-bin violation is clamped into the bin's
// feasible part) so generated jobs are valid under kill-at-limit
// semantics.
func (jh *JointHistogram) Sample(r *rand.Rand) (nodes int, estimate, runtime int64) {
	if jh.total == 0 {
		panic("stats: Sample from empty joint histogram")
	}
	pick := r.Int63n(jh.total)
	var run int64
	for _, n := range jh.nodeOrder {
		run += jh.nodes[n]
		if pick < run {
			nodes = n
			break
		}
	}
	estimate = jh.estimate[nodes].Sample(r)
	eb := jh.estimate[nodes].binOf(estimate)
	rh := jh.runtime[nodes][eb]
	runtime = rh.Sample(r)
	if runtime > estimate {
		// Same-bin violation: the runtime bin straddles the estimate.
		// Redraw uniformly from the feasible part of that bin.
		lo, _ := rh.BinBounds(rh.binOf(runtime))
		if lo+1 <= estimate {
			runtime = UniformInt(r, lo+1, estimate)
		} else {
			runtime = UniformInt(r, 1, estimate)
		}
	}
	return nodes, estimate, runtime
}
