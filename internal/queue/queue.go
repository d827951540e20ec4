// Package queue provides the indexed pending-queue structure behind the
// order policies' O(log Q) scheduling passes (DESIGN.md §14).
//
// An Index mirrors one priority order of the waiting queue: slots are
// queue positions in priority order, and a flat segment tree over the
// slots carries three aggregates per node — alive count (order
// statistics), minimum job width (width-pruned scans) and maximum
// estimate (the fast-conservative horizon). Push appends, Remove
// tombstones, and a replanning order policy rebuilds the whole index
// once per plan epoch; all queries are O(log Q) and allocation-free, so
// a scheduling pass over a 100k-deep backlog touches the handful of
// jobs that can actually start instead of every queued misfit.
//
// An Index is owned by one simulation goroutine (like the order
// policies themselves) and is deterministic: no map iteration, no
// randomization — identical operation sequences produce identical
// structures and identical iteration orders.
package queue

import (
	"math"

	"jobsched/internal/job"
)

const (
	// widthInf is the leaf width of a dead or hidden slot: wider than any
	// machine, so width-pruned descents never enter it.
	widthInf = math.MaxInt
	// estNone is the leaf estimate of a dead or hidden slot (valid
	// estimates are positive).
	estNone = int64(-1)
)

// Index is the indexed waiting queue: jobs in priority order with
// order-statistic, width-minimum and estimate-maximum aggregates.
type Index struct {
	// slots holds the jobs in priority order; nil marks a removed slot.
	// A hidden slot (pass-local exclusion, see Hide) keeps its job but
	// its tree leaf is cleared.
	slots []*job.Job
	// size is the segment-tree leaf capacity (a power of two ≥ len(slots));
	// node i's children are 2i and 2i+1, leaves start at index size.
	size int
	cnt  []int32 // alive slots per subtree
	minW []int   // minimum job width per subtree (widthInf when none)
	maxE []int64 // maximum job estimate per subtree (estNone when none)
	// alive counts visible jobs (= Len; excludes removed and hidden).
	alive int
	// hiddenSlots lists the pass-locally hidden slots, in hide order.
	hiddenSlots []int
	// pos maps a queued job's ID to its slot (lookups only — never ranged).
	pos   map[job.ID]int
	stats *Stats
}

// NewIndex returns an empty index.
func NewIndex() *Index { return &Index{pos: make(map[job.ID]int)} }

// SetStats attaches (or, with nil, detaches) an operation counter. The
// pointer survives Rebuild, so one counter accumulates across plan epochs.
func (ix *Index) SetStats(s *Stats) { ix.stats = s }

// Len returns the number of visible (alive, unhidden) jobs.
func (ix *Index) Len() int { return ix.alive }

// pull recomputes internal node i from its children.
func (ix *Index) pull(i int) {
	l, r := 2*i, 2*i+1
	ix.cnt[i] = ix.cnt[l] + ix.cnt[r]
	if ix.minW[l] <= ix.minW[r] {
		ix.minW[i] = ix.minW[l]
	} else {
		ix.minW[i] = ix.minW[r]
	}
	if ix.maxE[l] >= ix.maxE[r] {
		ix.maxE[i] = ix.maxE[l]
	} else {
		ix.maxE[i] = ix.maxE[r]
	}
}

// setLeaf writes slot's leaf from j (nil = dead) and bubbles the change up.
func (ix *Index) setLeaf(slot int, j *job.Job) {
	i := ix.size + slot
	if j == nil {
		ix.cnt[i], ix.minW[i], ix.maxE[i] = 0, widthInf, estNone
	} else {
		ix.cnt[i], ix.minW[i], ix.maxE[i] = 1, j.Nodes, j.Estimate
	}
	for i >>= 1; i >= 1; i >>= 1 {
		ix.pull(i)
	}
}

// grow reallocates the tree for at least `need` leaves and rebuilds it.
func (ix *Index) grow(need int) {
	size := ix.size
	if size == 0 {
		size = 64
	}
	for size < need {
		size *= 2
	}
	if size == ix.size {
		return
	}
	ix.size = size
	ix.cnt = make([]int32, 2*size)
	ix.minW = make([]int, 2*size)
	ix.maxE = make([]int64, 2*size)
	ix.rebuildTree()
	if ix.stats != nil {
		ix.stats.Grows++
	}
}

// rebuildTree recomputes every leaf from slots (respecting hidden slots)
// and every internal node bottom-up. O(size).
func (ix *Index) rebuildTree() {
	for i := 0; i < ix.size; i++ {
		li := ix.size + i
		var j *job.Job
		if i < len(ix.slots) {
			j = ix.slots[i]
		}
		if j == nil {
			ix.cnt[li], ix.minW[li], ix.maxE[li] = 0, widthInf, estNone
		} else {
			ix.cnt[li], ix.minW[li], ix.maxE[li] = 1, j.Nodes, j.Estimate
		}
	}
	for _, s := range ix.hiddenSlots {
		li := ix.size + s
		ix.cnt[li], ix.minW[li], ix.maxE[li] = 0, widthInf, estNone
	}
	for i := ix.size - 1; i >= 1; i-- {
		ix.pull(i)
	}
}

// Push appends j at the lowest-priority end (the live insertion point of
// FCFS order and of a replanner's unplanned tail). O(log Q), amortizing
// the occasional doubling rebuild.
func (ix *Index) Push(j *job.Job) {
	slot := len(ix.slots)
	ix.slots = append(ix.slots, j)
	ix.pos[j.ID] = slot
	ix.alive++
	if len(ix.slots) > ix.size {
		ix.grow(len(ix.slots))
	} else {
		ix.setLeaf(slot, j)
	}
	if ix.stats != nil {
		ix.stats.Pushes++
	}
}

// Remove takes a started job out of the index (tombstoning its slot) and
// reports whether it was present. O(log Q) plus the amortized compaction.
func (ix *Index) Remove(j *job.Job) bool {
	slot, ok := ix.pos[j.ID]
	if !ok || ix.slots[slot] != j {
		return false
	}
	if ix.cnt[ix.size+slot] == 0 {
		// Hidden slot (defensive: passes normally UnhideAll first): it is
		// already invisible and already debited from alive.
		ix.dropHidden(slot)
	} else {
		ix.setLeaf(slot, nil)
		ix.alive--
	}
	ix.slots[slot] = nil
	delete(ix.pos, j.ID)
	if ix.stats != nil {
		ix.stats.Removes++
	}
	ix.maybeCompact()
	return true
}

// dropHidden deletes slot from the hidden list (order preserved).
func (ix *Index) dropHidden(slot int) {
	for i, s := range ix.hiddenSlots {
		if s == slot {
			copy(ix.hiddenSlots[i:], ix.hiddenSlots[i+1:])
			ix.hiddenSlots = ix.hiddenSlots[:len(ix.hiddenSlots)-1]
			return
		}
	}
}

// maybeCompact rebuilds the slot array once the tombstones dominate —
// amortized O(1) per removal. Never runs while a pass holds hidden slots
// (compaction renumbers slots; hidden bookkeeping must stay valid).
func (ix *Index) maybeCompact() {
	dead := len(ix.slots) - ix.alive
	if len(ix.hiddenSlots) != 0 || dead <= 64 || dead <= ix.alive {
		return
	}
	n := 0
	for _, j := range ix.slots {
		if j != nil {
			ix.slots[n] = j
			ix.pos[j.ID] = n
			n++
		}
	}
	clearTail := ix.slots[n:]
	for i := range clearTail {
		clearTail[i] = nil
	}
	ix.slots = ix.slots[:n]
	ix.rebuildTree()
	if ix.stats != nil {
		ix.stats.Compactions++
	}
}

// Rebuild replaces the whole order with the concatenation of parts (a
// replanner passes plan tail + unplanned arrivals). O(Q) — called once
// per plan epoch, amortized against the epoch's O(Q log Q) plan sort.
func (ix *Index) Rebuild(parts ...[]*job.Job) {
	ix.slots = ix.slots[:0]
	ix.hiddenSlots = ix.hiddenSlots[:0]
	clear(ix.pos)
	n := 0
	for _, part := range parts {
		for _, j := range part {
			ix.slots = append(ix.slots, j)
			ix.pos[j.ID] = n
			n++
		}
	}
	ix.alive = n
	if n > ix.size {
		ix.grow(n)
		// grow already rebuilt the tree over the new slots.
	} else if ix.size > 0 {
		ix.rebuildTree()
	}
	if ix.stats != nil {
		ix.stats.Rebuilds++
		ix.stats.RebuiltSlots = job.AddSat(ix.stats.RebuiltSlots, int64(n))
	}
}

// Hide makes j invisible to queries until UnhideAll — the pass-local
// exclusion of already-picked jobs during a batched pass. Reports whether
// j was visible. The caller must UnhideAll before the pass returns (the
// engine's Remove calls arrive afterwards).
func (ix *Index) Hide(j *job.Job) bool {
	slot, ok := ix.pos[j.ID]
	if !ok || ix.slots[slot] != j || ix.cnt[ix.size+slot] == 0 {
		return false
	}
	i := ix.size + slot
	ix.cnt[i], ix.minW[i], ix.maxE[i] = 0, widthInf, estNone
	for i >>= 1; i >= 1; i >>= 1 {
		ix.pull(i)
	}
	ix.alive--
	ix.hiddenSlots = append(ix.hiddenSlots, slot)
	if ix.stats != nil {
		ix.stats.Hides++
	}
	return true
}

// UnhideAll restores every hidden slot (end of a batched pass).
func (ix *Index) UnhideAll() {
	for _, slot := range ix.hiddenSlots {
		if j := ix.slots[slot]; j != nil {
			ix.setLeaf(slot, j)
			ix.alive++
		}
	}
	ix.hiddenSlots = ix.hiddenSlots[:0]
}

// nextAliveSlot returns the first visible slot > after, or -1.
func (ix *Index) nextAliveSlot(after int) int {
	if ix.alive == 0 {
		return -1
	}
	p := after + 1
	if p < 0 {
		p = 0
	}
	if p >= len(ix.slots) {
		return -1
	}
	if ix.stats != nil {
		ix.stats.Steps++
	}
	i := ix.size + p
	for {
		if ix.cnt[i] > 0 {
			for i < ix.size {
				if ix.cnt[2*i] > 0 {
					i = 2 * i
				} else {
					i = 2*i + 1
				}
			}
			return i - ix.size
		}
		for i&1 == 1 {
			i >>= 1
			if i == 0 {
				return -1
			}
		}
		i++
	}
}

// nextFitSlot returns the first visible slot > after whose job is at most
// maxNodes wide, or -1 — the width-pruned scan: runs of too-wide jobs are
// skipped in O(log Q) total, not O(run length).
func (ix *Index) nextFitSlot(after, maxNodes int) int {
	if ix.alive == 0 {
		return -1
	}
	p := after + 1
	if p < 0 {
		p = 0
	}
	if p >= len(ix.slots) {
		return -1
	}
	if ix.stats != nil {
		ix.stats.FitQueries++
	}
	i := ix.size + p
	for {
		if ix.minW[i] <= maxNodes {
			for i < ix.size {
				if ix.minW[2*i] <= maxNodes {
					i = 2 * i
				} else {
					i = 2*i + 1
				}
			}
			return i - ix.size
		}
		for i&1 == 1 {
			i >>= 1
			if i == 0 {
				return -1
			}
		}
		i++
	}
}

// Rank returns how many visible jobs precede slot — the job's current
// position (0-based) in the priority order. O(log Q).
func (ix *Index) Rank(slot int) int {
	if ix.size == 0 {
		return 0
	}
	if ix.stats != nil {
		ix.stats.RankQueries++
	}
	res := 0
	l, r := ix.size, ix.size+slot
	for l < r {
		if l&1 == 1 {
			res += int(ix.cnt[l])
			l++
		}
		if r&1 == 1 {
			r--
			res += int(ix.cnt[r])
		}
		l >>= 1
		r >>= 1
	}
	return res
}

// Select returns the k-th (0-based) visible job and its slot, or (nil, -1).
func (ix *Index) Select(k int) (*job.Job, int) {
	if k < 0 || k >= ix.alive {
		return nil, -1
	}
	if ix.stats != nil {
		ix.stats.SelectQueries++
	}
	i := 1
	for i < ix.size {
		if lc := int(ix.cnt[2*i]); k < lc {
			i = 2 * i
		} else {
			k -= lc
			i = 2*i + 1
		}
	}
	return ix.slots[i-ix.size], i - ix.size
}

// First returns the highest-priority visible job and its slot, or (nil, -1).
func (ix *Index) First() (*job.Job, int) {
	return ix.Select(0)
}

// MinNodes returns the narrowest visible width (the O(1) "can anything at
// all fit?" precheck); an empty index reports an unsatisfiably wide job.
func (ix *Index) MinNodes() int {
	if ix.size == 0 || ix.alive == 0 {
		return widthInf
	}
	return ix.minW[1]
}

// MaxEstimateFirst returns the maximum estimate among the first k visible
// jobs (the fast-conservative walk horizon); k ≥ Len covers the whole
// queue. Returns 0 when nothing is visible or k ≤ 0.
func (ix *Index) MaxEstimateFirst(k int) int64 {
	if ix.alive == 0 || k <= 0 {
		return 0
	}
	if ix.stats != nil {
		ix.stats.MaxEstQueries++
	}
	if k >= ix.alive {
		if ix.maxE[1] > 0 {
			return ix.maxE[1]
		}
		return 0
	}
	_, slot := ix.Select(k - 1)
	res := estNone
	l, r := ix.size, ix.size+slot+1
	for l < r {
		if l&1 == 1 {
			if ix.maxE[l] > res {
				res = ix.maxE[l]
			}
			l++
		}
		if r&1 == 1 {
			r--
			if ix.maxE[r] > res {
				res = ix.maxE[r]
			}
		}
		l >>= 1
		r >>= 1
	}
	if res < 0 {
		return 0
	}
	return res
}

// AppendOrdered appends the visible jobs in priority order to dst. Tests
// use it as the differential oracle against the cursor API; passes
// iterate with a Cursor instead.
func (ix *Index) AppendOrdered(dst []*job.Job) []*job.Job {
	for s, j := range ix.slots {
		if j != nil && ix.cnt[ix.size+s] > 0 {
			dst = append(dst, j)
		}
	}
	return dst
}

// Cursor iterates the visible jobs in priority order without
// materializing a slice. Zero-allocation: the cursor is a value and every
// step is a tree descent. A cursor is invalidated by any index mutation
// except Hide of a job at or before the cursor (the batched passes' usage:
// hide what you just picked, keep iterating).
type Cursor struct {
	ix   *Index
	slot int
}

// Iter returns a cursor positioned before the first visible job.
func (ix *Index) Iter() Cursor { return Cursor{ix: ix, slot: -1} }

// IterAfter returns a cursor positioned after slot (EASY's backfill scan
// starts after the head's slot: the head may fit by width yet fail the
// profile check, and must not be revisited as its own backfill candidate).
func (ix *Index) IterAfter(slot int) Cursor { return Cursor{ix: ix, slot: slot} }

// Next advances to the next visible job, or nil at the end.
func (c *Cursor) Next() *job.Job {
	s := c.ix.nextAliveSlot(c.slot)
	if s < 0 {
		c.slot = len(c.ix.slots)
		return nil
	}
	c.slot = s
	return c.ix.slots[s]
}

// NextFit advances to the next visible job at most maxNodes wide, or nil.
func (c *Cursor) NextFit(maxNodes int) *job.Job {
	s := c.ix.nextFitSlot(c.slot, maxNodes)
	if s < 0 {
		c.slot = len(c.ix.slots)
		return nil
	}
	c.slot = s
	return c.ix.slots[s]
}

// Slot returns the current slot (-1 before the first Next).
func (c *Cursor) Slot() int { return c.slot }
