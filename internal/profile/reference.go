package profile

import (
	"fmt"
	"sort"
	"strings"
)

// Reference is the brute-force availability profile: the original, naive
// implementation kept alive verbatim as a differential-testing oracle for
// the optimized kernel (Tree). Every operation re-derives its answer from
// scratch — stepIndex binary-searches the full slice on every call, and
// EarliestFit restarts its window scan from the blocking step's index via
// a fresh binary search — so the code stays obviously correct at the cost
// of O(S²) worst-case queries.
//
// The differential tests (differential_test.go, FuzzProfileOps) drive the
// optimized kernels and a Reference through identical operation
// sequences and assert identical results and identical canonical step
// functions. Do not "optimize" this type: its value is that it is slow
// and simple.
type Reference struct {
	steps []step
	nodes int
	// passNow anchors an open batched scheduling pass (see BeginPass).
	passNow int64
}

// NewReference returns a brute-force profile for a machine with the given
// node count, entirely free from time `from` on.
func NewReference(nodes int, from int64) *Reference {
	if nodes <= 0 {
		panic("profile: machine must have at least one node")
	}
	return &Reference{
		steps: []step{{at: from, free: nodes}},
		nodes: nodes,
	}
}

// Nodes returns the machine size.
func (p *Reference) Nodes() int { return p.nodes }

// SetStats is a no-op: the oracle stays uninstrumented so its operation
// mix can never perturb a differential run's counters.
func (p *Reference) SetStats(s *Stats) {}

// Reset reinitializes p to a fully free machine of the given size from
// time `from` on, reusing the step storage. Needed so the oracle can
// stand in for the optimized kernels as a scratch-profile backend in the
// backend-swap determinism tests.
func (p *Reference) Reset(nodes int, from int64) {
	if nodes <= 0 {
		panic("profile: machine must have at least one node")
	}
	p.nodes = nodes
	p.steps = append(p.steps[:0], step{at: from, free: nodes})
}

// Clone returns an independent deep copy.
func (p *Reference) Clone() *Reference {
	c := &Reference{nodes: p.nodes, steps: make([]step, len(p.steps))}
	copy(c.steps, p.steps)
	return c
}

// CloneInto copies p into dst, reusing dst's step storage.
func (p *Reference) CloneInto(dst *Reference) {
	dst.nodes = p.nodes
	dst.steps = append(dst.steps[:0], p.steps...)
}

// FreeAt returns the number of free nodes at time t. Times before the
// first step report the first step's value.
func (p *Reference) FreeAt(t int64) int {
	i := p.stepIndex(t)
	return p.steps[i].free
}

// stepIndex returns the index of the step covering time t (the last step
// with at <= t, clamped to 0).
func (p *Reference) stepIndex(t int64) int {
	// First step with at > t, minus one.
	i := sort.Search(len(p.steps), func(i int) bool { return p.steps[i].at > t })
	if i == 0 {
		return 0
	}
	return i - 1
}

// splitAt ensures a step boundary exists exactly at time t and returns its
// index. Times before the first step extend the profile backwards with
// the first step's value.
func (p *Reference) splitAt(t int64) int {
	i := sort.Search(len(p.steps), func(i int) bool { return p.steps[i].at >= t })
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
func (p *Reference) Reserve(nodes int, start, end int64) {
	if nodes <= 0 || end <= start {
		panic("profile: Reserve requires positive nodes and start < end")
	}
	i := p.splitAt(start)
	j := p.splitAt(end)
	for k := i; k < j; k++ {
		p.steps[k].free -= nodes
		if p.steps[k].free < 0 {
			panic(fmt.Sprintf("profile: overcommit at t=%d (%d free after reserving %d)",
				p.steps[k].at, p.steps[k].free, nodes))
		}
	}
	p.coalesce()
}

// ReserveClamped subtracts up to `nodes` free nodes on [start, end),
// clamping each step at zero instead of panicking on overcommit (the
// brute-force counterpart of array.ReserveClamped).
func (p *Reference) ReserveClamped(nodes int, start, end int64) {
	if nodes <= 0 || end <= start {
		panic("profile: ReserveClamped requires positive nodes and start < end")
	}
	i := p.splitAt(start)
	j := p.splitAt(end)
	for k := i; k < j; k++ {
		p.steps[k].free -= nodes
		if p.steps[k].free < 0 {
			p.steps[k].free = 0
		}
	}
	p.coalesce()
}

// Release adds `nodes` free nodes on [start, end). Used when a running
// job completes earlier than estimated: the remainder of its projected
// allocation is handed back.
func (p *Reference) Release(nodes int, start, end int64) {
	if nodes <= 0 || end <= start {
		panic("profile: Release requires positive nodes and start < end")
	}
	i := p.splitAt(start)
	j := p.splitAt(end)
	for k := i; k < j; k++ {
		p.steps[k].free += nodes
		if p.steps[k].free > p.nodes {
			panic(fmt.Sprintf("profile: release beyond machine size at t=%d", p.steps[k].at))
		}
	}
	p.coalesce()
}

// coalesce merges adjacent steps with equal free counts.
func (p *Reference) coalesce() {
	out := p.steps[:1]
	for _, s := range p.steps[1:] {
		if s.free == out[len(out)-1].free {
			continue
		}
		out = append(out, s)
	}
	p.steps = out
}

// EarliestFit returns the earliest time >= notBefore at which `nodes`
// nodes are simultaneously free for `duration` seconds. duration may be
// huge (estimates of long jobs); overflow is clamped to Infinity. If no
// finite start admits the job — the tail of the profile is permanently
// short of `nodes` free nodes (a reservation ending at Infinity) —
// Infinity is returned.
func (p *Reference) EarliestFit(nodes int, duration int64, notBefore int64) int64 {
	if nodes > p.nodes {
		panic(fmt.Sprintf("profile: job wants %d nodes on a %d-node machine", nodes, p.nodes))
	}
	if duration <= 0 {
		panic("profile: EarliestFit requires positive duration")
	}
	start := notBefore
	i := p.stepIndex(notBefore)
	for {
		// Advance to the first step at/after `start` with enough nodes.
		for i < len(p.steps) {
			segEnd := Infinity
			if i+1 < len(p.steps) {
				segEnd = p.steps[i+1].at
			}
			if p.steps[i].free >= nodes && segEnd > start {
				break
			}
			i++
		}
		if i >= len(p.steps) {
			// Reachable when the last step is short of `nodes` free nodes
			// (a permanent reservation): the job never fits.
			return Infinity
		}
		if p.steps[i].at > start {
			start = p.steps[i].at
		}
		// Check the window [start, start+duration) stays feasible.
		end := satEnd(start, duration)
		ok := true
		for j := i; j < len(p.steps) && p.steps[j].at < end; j++ {
			if p.steps[j].free < nodes {
				// Blocked: restart the search after the blocking step.
				start = refBlockEnd(p, j)
				i = p.stepIndex(start)
				ok = false
				break
			}
		}
		if ok {
			return start
		}
		if start == Infinity {
			return Infinity
		}
	}
}

// refBlockEnd returns the end time of the step at index j.
func refBlockEnd(p *Reference, j int) int64 {
	if j+1 < len(p.steps) {
		return p.steps[j+1].at
	}
	return Infinity
}

// MinFree returns the minimum number of free nodes over [start, end).
// Panics on an empty interval.
func (p *Reference) MinFree(start, end int64) int {
	if end <= start {
		panic("profile: MinFree requires start < end")
	}
	i := p.stepIndex(start)
	min := p.steps[i].free
	for j := i + 1; j < len(p.steps) && p.steps[j].at < end; j++ {
		if p.steps[j].free < min {
			min = p.steps[j].free
		}
	}
	return min
}

// BeginPass sets the time StartMany places from.
func (p *Reference) BeginPass(now int64) { p.passNow = now }

// StartMany places each request at its earliest fit from the pass time
// and reserves it, appending the start times to `starts` — literally the
// sequential loop the batch API is specified against.
func (p *Reference) StartMany(reqs []StartReq, starts []int64) []int64 {
	return startManySequential(p, reqs, p.passNow, starts)
}

// CommitPass does nothing: the oracle defers no work.
func (p *Reference) CommitPass() {}

// StepCount returns the number of steps (diagnostics, complexity tests).
func (p *Reference) StepCount() int { return len(p.steps) }

// String renders the profile compactly for debugging.
func (p *Reference) String() string {
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
