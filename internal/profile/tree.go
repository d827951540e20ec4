package profile

import (
	"fmt"
	"strings"

	"jobsched/internal/job"
)

// Tree is the availability-profile kernel the schedulers use: the
// blocked step array described in the package documentation. The name
// predates the blocks (it was a balanced tree once) and is kept because
// callers outside this package construct it by name.
//
// A Tree is not safe for concurrent use: queries move the cursor and
// refresh block summaries. Each simulation goroutine must own its
// profiles.
type Tree struct {
	blocks []block // live blocks; spare block storage sits behind them
	groups []group // group g bounds blocks [g<<gshift, (g+1)<<gshift)
	nodes  int     // machine size
	half   int     // B: blocks split past 2·half steps (blockSteps)
	gshift int     // groupShift
	// cb, ck is the query cursor: the position of the step that covered
	// the last queried time. Purely a performance hint — seek re-validates
	// it on every use — so mutations never update it.
	cb, ck  int
	passNow int64
	stats   *Stats
}

// NewTree returns a profile for a machine with the given node count,
// entirely free from time `from` on.
func NewTree(nodes int, from int64) *Tree {
	return newTreeBlocks(nodes, from, blockSteps, groupShift)
}

// newTreeBlocks is NewTree with blocks of up to 2·half steps in groups of
// 2^gshift: the tests use tiny blocks and groups so that small profiles
// span many of them.
func newTreeBlocks(nodes int, from int64, half, gshift int) *Tree {
	t := &Tree{half: half, gshift: gshift}
	t.Reset(nodes, from)
	return t
}

// Nodes returns the machine size.
func (t *Tree) Nodes() int { return t.nodes }

// SetStats attaches (or, with nil, detaches) an operation counter. The
// pointer survives Reset — a scratch profile keeps counting across the
// per-pass rebuilds, which is exactly the per-run total the telemetry
// layer reports.
func (t *Tree) SetStats(s *Stats) { t.stats = s }

// scanned adds a call's visited steps and bounds to the attached Stats.
func (t *Tree) scanned(n int) {
	if t.stats != nil {
		t.stats.Scanned = job.AddSat(t.stats.Scanned, int64(n))
	}
}

// Reset reinitializes t to a fully free machine of the given size from
// time `from` on, keeping every block's storage.
func (t *Tree) Reset(nodes int, from int64) {
	if nodes <= 0 {
		panic("profile: machine must have at least one node")
	}
	if t.half == 0 {
		t.half, t.gshift = blockSteps, groupShift
	}
	t.nodes = nodes
	var buf []step
	if cap(t.blocks) > 0 {
		buf = t.blocks[:1][0].steps[:0]
	}
	t.blocks = append(t.blocks[:0], block{steps: append(buf, step{at: from, free: nodes}), first: from, min: nodes, max: nodes})
	t.groups = append(t.groups[:0], group{stale: true})
	t.cb, t.ck = 0, 0
	if t.stats != nil {
		t.stats.Resets++
	}
}

// Clone returns an independent deep copy (stats detached).
func (t *Tree) Clone() *Tree {
	c := &Tree{}
	t.CloneInto(c)
	return c
}

// CloneInto copies t into dst, reusing dst's block storage (the
// allocation-free counterpart of Clone for scratch pools). dst keeps its
// own stats attachment.
func (t *Tree) CloneInto(dst *Tree) {
	n := len(t.blocks)
	if cap(dst.blocks) < n {
		dst.blocks = append(dst.blocks[:cap(dst.blocks)], make([]block, n-cap(dst.blocks))...)
	}
	dst.blocks = dst.blocks[:n]
	for i, blk := range t.blocks {
		blk.steps = append(dst.blocks[i].steps[:0], blk.steps...)
		dst.blocks[i] = blk
	}
	dst.groups = append(dst.groups[:0], t.groups...)
	dst.nodes, dst.half, dst.gshift, dst.cb, dst.ck = t.nodes, t.half, t.gshift, 0, 0
}

// FreeAt returns the number of free nodes at time at. Times before the
// first step report the first step's value.
func (t *Tree) FreeAt(at int64) int {
	if t.stats != nil {
		t.stats.FreeAt++
	}
	return t.val(t.seek(at))
}

// MinFree returns the minimum number of free nodes over [start, end).
// Panics on an empty interval. The covering step of start participates
// even when end precedes its successor; later steps while they begin
// before end.
func (t *Tree) MinFree(start, end int64) int {
	if end <= start {
		panic("profile: MinFree requires start < end")
	}
	if t.stats != nil {
		t.stats.MinFree++
	}
	b, k := t.seek(start)
	m := t.val(b, k)
	for k++; b < len(t.blocks); b, k = b+1, 0 {
		blk := &t.blocks[b]
		for ; k < len(blk.steps); k++ {
			if blk.steps[k].at >= end {
				return m
			}
			m = min(m, blk.steps[k].free+blk.add)
		}
	}
	return m
}

// EarliestFit returns the earliest time >= notBefore at which `nodes`
// nodes are simultaneously free for `duration` seconds. duration may be
// huge (estimates of long jobs); overflow is clamped to Infinity. If no
// finite start admits the job — the tail of the profile is permanently
// short of `nodes` free nodes (a reservation ending at Infinity) —
// Infinity is returned.
func (t *Tree) EarliestFit(nodes int, duration int64, notBefore int64) int64 {
	if t.stats != nil {
		t.stats.EarliestFit++
	}
	start, _, _, _, _, visited := t.fit(nodes, duration, notBefore)
	t.scanned(visited)
	return start
}

// Reserve subtracts `nodes` free nodes on [start, end). It panics if the
// reservation would drive any step negative — callers must only reserve
// intervals found by EarliestFit or known to fit.
func (t *Tree) Reserve(nodes int, start, end int64) {
	if nodes <= 0 || end <= start {
		panic("profile: Reserve requires positive nodes and start < end")
	}
	if t.stats != nil {
		t.stats.Reserve++
	}
	bs, ks := t.splitAt(start, 0, 0)
	be, ke := t.splitAt(end, bs, ks)
	t.apply(bs, ks, be, ke, -nodes)
}

// Release adds `nodes` free nodes on [start, end). Used when a running
// job completes earlier than estimated: the remainder of its projected
// allocation is handed back.
func (t *Tree) Release(nodes int, start, end int64) {
	if nodes <= 0 || end <= start {
		panic("profile: Release requires positive nodes and start < end")
	}
	if t.stats != nil {
		t.stats.Release++
	}
	bs, ks := t.splitAt(start, 0, 0)
	be, ke := t.splitAt(end, bs, ks)
	t.apply(bs, ks, be, ke, nodes)
}

// ReserveClamped subtracts up to `nodes` free nodes on [start, end),
// clamping each step at zero instead of panicking on overcommit. It
// models capacity that *disappears* rather than capacity a job occupies:
// an announced maintenance drain takes its nodes regardless of what the
// reservation profile thinks is free, and any shortfall manifests as
// aborted jobs at run time, not as a scheduler invariant violation.
func (t *Tree) ReserveClamped(nodes int, start, end int64) {
	if nodes <= 0 || end <= start {
		panic("profile: ReserveClamped requires positive nodes and start < end")
	}
	if t.stats != nil {
		t.stats.ReserveClamped++
	}
	bs, ks := t.splitAt(start, 0, 0)
	be, ke := t.splitAt(end, bs, ks)
	for b := bs; b <= be; b++ {
		blk := &t.blocks[b]
		lo, hi := t.span(b, bs, ks, be, ke)
		for k := lo; k < hi; k++ {
			blk.steps[k].free = max(blk.steps[k].free+blk.add-nodes, 0) - blk.add
			blk.min = min(blk.min, blk.steps[k].free)
		}
		blk.loose = true
		t.groups[b>>t.gshift].stale = true
	}
	// Clamping can equalize *interior* neighbors (two steps both pinned to
	// zero), so the edge-only coalesce of Reserve/Release is not enough:
	// sweep the whole touched range backwards, boundaries included. The
	// sweep starts one past the end boundary because a drain entirely
	// before the profile start makes splitAt(end) insert a boundary equal
	// to its *successor* (the backward extension copies the old first
	// step's value).
	b, k := be, ke+1
	if k == len(t.blocks[b].steps) {
		b, k = b+1, 0
		if b == len(t.blocks) {
			b, k = be, ke
		}
	}
	for {
		pb, pk, ok := t.prev(b, k)
		if !ok {
			break
		}
		if t.val(pb, pk) == t.val(b, k) {
			t.remove(b, k)
		}
		if b == bs && k == ks {
			break
		}
		b, k = pb, pk
	}
	t.rebalance(bs, be)
}

// BeginPass opens a batched scheduling pass anchored at `now`.
func (t *Tree) BeginPass(now int64) {
	t.passNow = now
	if t.stats != nil {
		t.stats.Passes++
	}
}

// StartMany places each request at its earliest fit from the pass time
// and reserves it, appending the start times to `starts`. Identical in
// effect to the sequential EarliestFit+Reserve loop (the batch tests pin
// exactly that), and counted as that loop: one EarliestFit per request,
// one Reserve per placed one. Each request is one scan (startOne).
func (t *Tree) StartMany(reqs []StartReq, starts []int64) []int64 {
	if t.stats != nil {
		t.stats.BatchedStarts = job.AddSat(t.stats.BatchedStarts, int64(len(reqs)))
	}
	for _, r := range reqs {
		at := t.startOne(r.Nodes, r.Duration, t.passNow)
		starts = append(starts, at)
		if t.stats != nil {
			t.stats.EarliestFit++
			if at != Infinity {
				t.stats.Reserve++
			}
		}
	}
	return starts
}

// startOne places a job at its earliest fit from notBefore and reserves
// it there, returning the start (Infinity, reserving nothing, if no
// finite start admits the job). The effect is exactly EarliestFit
// followed by Reserve, in one scan: the fit scan knows the steps holding
// the window's start and, unless bounds completed the window, its end, so
// the boundaries are split there without searching for them again. A
// window ending at Infinity (a saturated end) gets its step at Infinity,
// as Reserve's split does.
func (t *Tree) startOne(nodes int, duration int64, notBefore int64) int64 {
	start, fb, fk, lb, lk, visited := t.fit(nodes, duration, notBefore)
	t.scanned(visited)
	if start == Infinity {
		return Infinity // only the step at Infinity admits it: never
	}
	if t.blocks[fb].steps[fk].at < start { // the window starts mid-step
		fb, fk = t.splitAfter(start, fb, fk)
		if lk >= 0 && lb == fb {
			lk++
		}
	}
	end := satEnd(start, duration)
	var be, ke int
	if lk < 0 {
		be, ke = t.splitAt(end, fb, fk)
	} else {
		be, ke = t.splitAfter(end, lb, lk)
	}
	t.apply(fb, fk, be, ke, -nodes)
	return start
}

// CommitPass closes the pass. Every operation keeps the canonical form,
// so there is nothing left to do.
func (t *Tree) CommitPass() {}

// StepCount returns the number of steps (diagnostics, complexity tests).
func (t *Tree) StepCount() int {
	n := 0
	for _, blk := range t.blocks {
		n += len(blk.steps)
	}
	return n
}

// String renders the profile compactly for debugging, in the canonical
// format both kernels share.
func (t *Tree) String() string {
	var b strings.Builder
	b.WriteString("profile[")
	for i, blk := range t.blocks {
		for k, s := range blk.steps {
			if i > 0 || k > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d:%d", s.at, s.free+blk.add)
		}
	}
	b.WriteByte(']')
	return b.String()
}
