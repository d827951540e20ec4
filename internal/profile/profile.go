// Package profile implements the availability profile: a step function of
// free nodes over future time. It is the substrate of both backfilling
// variants — EASY uses it to compute the shadow time of the queue head,
// conservative backfilling inserts a reservation for every waiting job.
//
// Each step holds the number of free nodes from its time until the next
// step; the final step extends to infinity. All times are estimated:
// running jobs are entered with their projected completion (start +
// estimate), which is exactly the information a scheduler legitimately
// has on-line.
//
// Tree is the kernel schedulers use (through the Kernel interface). It
// runs small profiles on the array kernel of this file and promotes large
// ones to a balanced tree (tree.go). Reference, the original naive
// implementation, is the brute-force oracle of the differential tests
// (differential_test.go, FuzzProfileOps, FuzzProfileTree) and the
// "before" side of the recorded BENCH_1.json.
//
// # The array kernel
//
// The array is a sorted slice of steps (S = step count):
//
//   - EarliestFit is a single forward pass, O(S) worst case: when a step
//     short of nodes blocks the candidate window, the scan skips ahead and
//     resumes from the blocking step instead of re-searching from
//     notBefore (the naive restart scan is O(S²) worst case).
//   - FreeAt/MinFree/EarliestFit locate their starting step through a
//     last-query cursor: schedulers query monotonically non-decreasing
//     times, so the covering step is almost always the cursor's step or
//     its successor, O(1) amortized; a miss falls back to binary search,
//     O(log S).
//   - Reserve/Release split at most two boundaries (memmove insert) and
//     re-coalesce only at the interval edges — inner boundaries cannot
//     merge because both sides shift by the same amount — so a reservation
//     costs O(S) memmove with zero allocations once the backing array is
//     warm. Reset reuses that array, which is what kills the allocation
//     storm in conservative backfilling's per-pass profile rebuilds.
package profile

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Infinity is the time horizon of the last step.
const Infinity int64 = math.MaxInt64

type step struct {
	at   int64 // step start time
	free int   // free nodes in [at, next.at)
}

// array is the array kernel: Tree's small mode. The zero value is
// unusable; create one with newArray (or recycle one with Reset). Like
// Tree, it is not safe for concurrent use: the query cursor mutates on
// reads.
type array struct {
	steps []step
	nodes int // machine size
	// cur is the query cursor: the index of the step that covered the last
	// queried time. Purely a performance hint — seekIndex re-validates it
	// on every use — so mutations only need to keep it in range lazily.
	cur int
}

// newArray returns an array profile for a machine with the given node
// count, entirely free from time `from` on.
func newArray(nodes int, from int64) *array {
	if nodes <= 0 {
		panic("profile: machine must have at least one node")
	}
	return &array{
		steps: []step{{at: from, free: nodes}},
		nodes: nodes,
	}
}

// Reset reinitializes p to a fully free machine of the given size from
// time `from` on, reusing the step storage, so a scratch profile rebuilt
// on every pass performs zero allocations once the backing array has
// grown to the working-set size.
func (p *array) Reset(nodes int, from int64) {
	if nodes <= 0 {
		panic("profile: machine must have at least one node")
	}
	p.nodes = nodes
	p.steps = append(p.steps[:0], step{at: from, free: nodes})
	p.cur = 0
}

// Clone returns an independent deep copy.
func (p *array) Clone() *array {
	c := &array{nodes: p.nodes, steps: make([]step, len(p.steps))}
	copy(c.steps, p.steps)
	return c
}

// CloneInto copies p into dst, reusing dst's step storage (the
// allocation-free counterpart of Clone for scratch pools).
func (p *array) CloneInto(dst *array) {
	dst.nodes = p.nodes
	dst.steps = append(dst.steps[:0], p.steps...)
	dst.cur = 0
}

// FreeAt returns the number of free nodes at time t. Times before the
// first step report the first step's value.
func (p *array) FreeAt(t int64) int {
	return p.steps[p.seekIndex(t)].free
}

// seekIndex returns the index of the step covering time t (the last step
// with at <= t, clamped to 0), starting the search at the query cursor:
// the common monotone-query case resolves in O(1), anything else falls
// back to a binary search of the relevant side.
func (p *array) seekIndex(t int64) int {
	i := p.cur
	if i >= len(p.steps) {
		i = len(p.steps) - 1
	}
	if p.steps[i].at > t {
		// Behind the cursor: binary search the prefix [0, i).
		j := sort.Search(i, func(k int) bool { return p.steps[k].at > t })
		if j > 0 {
			j--
		}
		p.cur = j
		return j
	}
	// At or ahead of the cursor: the covering step is almost always the
	// cursor's or one of the next few; otherwise binary search the suffix.
	for n := 0; n < 4; n++ {
		if i+1 >= len(p.steps) || p.steps[i+1].at > t {
			p.cur = i
			return i
		}
		i++
	}
	off := i + 1
	j := sort.Search(len(p.steps)-off, func(k int) bool { return p.steps[off+k].at > t })
	i = off + j - 1
	p.cur = i
	return i
}

// splitAt ensures a step boundary exists exactly at time t and returns its
// index. Times before the first step extend the profile backwards with
// the first step's value. atLeast is a lower bound on the answer (0 when
// unknown): Reserve/Release pass the start boundary's index so the end
// boundary's search skips the prefix.
func (p *array) splitAt(t int64, atLeast int) int {
	i := atLeast + sort.Search(len(p.steps)-atLeast,
		func(k int) bool { return p.steps[atLeast+k].at >= t })
	if i < len(p.steps) && p.steps[i].at == t {
		return i
	}
	var free int
	if i == 0 {
		free = p.steps[0].free
	} else {
		free = p.steps[i-1].free
	}
	p.steps = append(p.steps, step{})
	copy(p.steps[i+1:], p.steps[i:])
	p.steps[i] = step{at: t, free: free}
	return i
}

// Reserve subtracts `nodes` free nodes on [start, end). It panics if the
// reservation would drive any step negative — callers must only reserve
// intervals found by EarliestFit or known to fit.
func (p *array) Reserve(nodes int, start, end int64) {
	if nodes <= 0 || end <= start {
		panic("profile: Reserve requires positive nodes and start < end")
	}
	i := p.splitAt(start, 0)
	j := p.splitAt(end, i)
	for k := i; k < j; k++ {
		p.steps[k].free -= nodes
		if p.steps[k].free < 0 {
			panic(fmt.Sprintf("profile: overcommit at t=%d (%d free after reserving %d)",
				p.steps[k].at, p.steps[k].free, nodes))
		}
	}
	p.coalesceEdges(i, j)
}

// ReserveClamped subtracts up to `nodes` free nodes on [start, end),
// clamping each step at zero instead of panicking on overcommit. It
// models capacity that *disappears* rather than capacity a job occupies:
// an announced maintenance drain takes its nodes regardless of what the
// reservation profile thinks is free, and any shortfall manifests as
// aborted jobs at run time, not as a scheduler invariant violation.
func (p *array) ReserveClamped(nodes int, start, end int64) {
	if nodes <= 0 || end <= start {
		panic("profile: ReserveClamped requires positive nodes and start < end")
	}
	i := p.splitAt(start, 0)
	j := p.splitAt(end, i)
	for k := i; k < j; k++ {
		p.steps[k].free -= nodes
		if p.steps[k].free < 0 {
			p.steps[k].free = 0
		}
	}
	// Clamping can equalize *interior* neighbors (two steps both pinned to
	// zero), so the edge-only coalesce of Reserve/Release is not enough:
	// sweep the whole touched range backwards, boundaries included. The
	// sweep reaches one past j because a drain entirely before the profile
	// start makes splitAt(end) insert a boundary equal to its *successor*
	// (the backward extension copies the old first step's value).
	hi := j + 1
	if hi > len(p.steps)-1 {
		hi = len(p.steps) - 1
	}
	for k := hi; k >= 1 && k >= i; k-- {
		if p.steps[k].free == p.steps[k-1].free {
			p.steps = append(p.steps[:k], p.steps[k+1:]...)
		}
	}
}

// Release adds `nodes` free nodes on [start, end). Used when a running
// job completes earlier than estimated: the remainder of its projected
// allocation is handed back.
func (p *array) Release(nodes int, start, end int64) {
	if nodes <= 0 || end <= start {
		panic("profile: Release requires positive nodes and start < end")
	}
	i := p.splitAt(start, 0)
	j := p.splitAt(end, i)
	for k := i; k < j; k++ {
		p.steps[k].free += nodes
		if p.steps[k].free > p.nodes {
			panic(fmt.Sprintf("profile: release beyond machine size at t=%d", p.steps[k].at))
		}
	}
	p.coalesceEdges(i, j)
}

// coalesceEdges merges equal-valued neighbors at the boundaries of a
// range update on [i, j). Interior boundaries cannot merge — both sides
// shifted by the same amount, and they differed before — so only steps i
// and j can have become redundant. Removing at most two steps keeps the
// canonical form without the naive full-slice sweep.
func (p *array) coalesceEdges(i, j int) {
	// The end boundary first so index i stays valid.
	if j < len(p.steps) && p.steps[j].free == p.steps[j-1].free {
		p.steps = append(p.steps[:j], p.steps[j+1:]...)
	}
	if i > 0 && p.steps[i].free == p.steps[i-1].free {
		p.steps = append(p.steps[:i], p.steps[i+1:]...)
	}
}

// EarliestFit returns the earliest time >= notBefore at which `nodes`
// nodes are simultaneously free for `duration` seconds. duration may be
// huge (estimates of long jobs); overflow is clamped to Infinity. If no
// finite start admits the job — the tail of the profile is permanently
// short of `nodes` free nodes (a reservation ending at Infinity) —
// Infinity is returned.
//
// The scan is a single forward pass with skip-ahead indexing: when a step
// short of `nodes` blocks the candidate window, the candidate start jumps
// to the end of the blocking step and the scan resumes there — earlier
// steps are never revisited, so the whole query is O(S).
func (p *array) EarliestFit(nodes int, duration int64, notBefore int64) int64 {
	if nodes > p.nodes {
		panic(fmt.Sprintf("profile: job wants %d nodes on a %d-node machine", nodes, p.nodes))
	}
	if duration <= 0 {
		panic("profile: EarliestFit requires positive duration")
	}
	anchor := p.seekIndex(notBefore)
	start := notBefore
	if p.steps[anchor].at > start {
		// notBefore precedes the profile: like the reference, the search
		// begins at the profile start.
		start = p.steps[anchor].at
	}
	end := satEnd(start, duration)
	for j := anchor; j < len(p.steps); j++ {
		if p.steps[j].free < nodes {
			if j+1 >= len(p.steps) {
				// The profile is permanently short of `nodes` from this
				// step on: no finite start exists.
				return Infinity
			}
			// Blocked: skip ahead. The window restarts at the end of the
			// blocking step; steps before j+1 are never revisited.
			start = p.steps[j+1].at
			end = satEnd(start, duration)
			continue
		}
		segEnd := Infinity
		if j+1 < len(p.steps) {
			segEnd = p.steps[j+1].at
		}
		if segEnd >= end {
			// Every step from the current anchor through j admits the job
			// and the feasible span now covers [start, start+duration).
			return start
		}
	}
	return Infinity
}

// startOne places a job at its earliest fit from notBefore and reserves
// it there, returning the start (Infinity, reserving nothing, if no
// finite start admits the job). The effect is exactly EarliestFit
// followed by Reserve, in one scan: the fit search stops on the window's
// last step, so the window's first step is known too, and the two
// boundaries are split there directly instead of being searched for
// again. A window ending at Infinity (a saturated end) gets its step at
// Infinity, as Reserve's split does.
func (p *array) startOne(nodes int, duration int64, notBefore int64) int64 {
	if nodes > p.nodes {
		panic(fmt.Sprintf("profile: job wants %d nodes on a %d-node machine", nodes, p.nodes))
	}
	if duration <= 0 {
		panic("profile: EarliestFit requires positive duration")
	}
	first := p.seekIndex(notBefore) // the step holding the window's start
	start := max(notBefore, p.steps[first].at)
	end := satEnd(start, duration)
	last := first
	for ; ; last++ {
		if p.steps[last].free < nodes {
			if last+1 == len(p.steps) {
				return Infinity
			}
			first = last + 1
			start = p.steps[first].at
			end = satEnd(start, duration)
			continue
		}
		if last+1 == len(p.steps) || p.steps[last+1].at >= end {
			break
		}
	}
	if start == Infinity {
		return Infinity // only the step at Infinity admits it: never
	}
	// The window is [start, end) over steps first..last, with end inside
	// step last (or on its successor's start).
	if p.steps[first].at < start {
		p.steps = slices.Insert(p.steps, first+1, step{at: start, free: p.steps[first].free})
		first++
		last++
	}
	j := last + 1 // the end boundary
	if j == len(p.steps) || p.steps[j].at != end {
		p.steps = slices.Insert(p.steps, j, step{at: end, free: p.steps[last].free})
	}
	for k := first; k < j; k++ {
		p.steps[k].free -= nodes
	}
	p.coalesceEdges(first, j)
	return start
}

// MinFree returns the minimum number of free nodes over [start, end).
// Panics on an empty interval.
func (p *array) MinFree(start, end int64) int {
	if end <= start {
		panic("profile: MinFree requires start < end")
	}
	i := p.seekIndex(start)
	min := p.steps[i].free
	for j := i + 1; j < len(p.steps) && p.steps[j].at < end; j++ {
		if p.steps[j].free < min {
			min = p.steps[j].free
		}
	}
	return min
}

// StepCount returns the number of steps (diagnostics, complexity tests).
func (p *array) StepCount() int { return len(p.steps) }

// String renders the profile compactly for debugging.
func (p *array) String() string {
	var b strings.Builder
	b.WriteString("profile[")
	for i, s := range p.steps {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", s.at, s.free)
	}
	b.WriteByte(']')
	return b.String()
}
