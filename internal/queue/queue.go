// Package queue provides the indexed pending-queue structure behind the
// order policies' O(log Q) scheduling passes (DESIGN.md §14).
//
// An Index is the one store of an order policy's waiting queue: slots
// are queue positions in priority order, and a flat segment tree over
// the slots carries two aggregates per node — alive count (order
// statistics) and minimum job width (width-pruned scans). Push appends,
// Remove tombstones, and a replanning order policy rebuilds the whole
// index once per plan epoch; all queries are O(log Q) and
// allocation-free, so a scheduling pass over a 100k-deep backlog touches
// the handful of jobs that can actually start instead of every queued
// misfit.
//
// Upkeep is amortized O(1) where the traffic is. Push, and Remove of the
// first job of the order, write their leaf and leave the ancestors stale;
// the next query or other mutation repairs them once, level by level
// over the appended and the popped range (sync), so a burst of k
// arrivals or k head starts costs O(k + log Q) and no query ever reads a
// stale ancestor. Compaction and Rebuild rewrite only the leaves that
// were in use, never the whole capacity.
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

// widthInf is the leaf width of a dead or hidden slot: wider than any
// machine, so width-pruned descents never enter it.
const widthInf = math.MaxInt

// Index is the indexed waiting queue: jobs in priority order with
// order-statistic and width-minimum aggregates.
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
	// alive counts visible jobs (= Len; excludes removed and hidden).
	alive int
	// hiddenSlots lists the pass-locally hidden slots, in hide order.
	hiddenSlots []int
	// pos maps a queued job's ID to its slot (lookups only — never ranged).
	pos map[job.ID]int
	// synced is the number of leading slots whose ancestors are up to
	// date: Push appends leaves past it, sync catches the tree up.
	synced int
	// rebuilt is the number of leading slots written by the last Rebuild;
	// the slots past it were pushed since (see Remove).
	rebuilt int
	// head is the first slot that is not a tombstone. Removing it is the
	// common case of list scheduling, and like Push it only writes the
	// leaf: [popLo, popHi) are the dead leaves before head whose ancestors
	// the next sync still has to repair.
	head, popLo, popHi int
	stats              *Stats
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
}

// writeLeaf writes slot's leaf from j (nil = dead) and leaves its
// ancestors as they are.
func (ix *Index) writeLeaf(slot int, j *job.Job) {
	i := ix.size + slot
	if j == nil {
		ix.cnt[i], ix.minW[i] = 0, widthInf
	} else {
		ix.cnt[i], ix.minW[i] = 1, j.Nodes
	}
}

// setLeaf writes slot's leaf from j (nil = dead) and bubbles the change up.
func (ix *Index) setLeaf(slot int, j *job.Job) {
	ix.writeLeaf(slot, j)
	ix.pullRange(slot, slot)
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
	ix.size = size
	ix.cnt = make([]int32, 2*size)
	ix.minW = make([]int, 2*size)
	for i := range ix.minW {
		ix.minW[i] = widthInf
	}
	ix.rebuildLeaves(len(ix.slots))
	if ix.stats != nil {
		ix.stats.Grows++
	}
}

// rebuildLeaves recomputes leaves [0, n) from slots (dead past the end,
// respecting hidden slots) and their ancestors bottom-up. Leaves at and
// past n must already be dead: O(n), independent of the capacity.
func (ix *Index) rebuildLeaves(n int) {
	ix.synced = len(ix.slots)
	ix.head, ix.popLo, ix.popHi = 0, 0, 0
	ix.skipDead()
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		if i < len(ix.slots) {
			ix.writeLeaf(i, ix.slots[i])
		} else {
			ix.writeLeaf(i, nil)
		}
	}
	for _, s := range ix.hiddenSlots {
		ix.writeLeaf(s, nil)
	}
	ix.pullRange(0, n-1)
}

// pullRange recomputes every ancestor of leaves [lo, hi], one level at a
// time: O(hi-lo + log Q).
func (ix *Index) pullRange(lo, hi int) {
	l, r := (ix.size+lo)>>1, (ix.size+hi)>>1
	for ; l < r; l, r = l>>1, r>>1 {
		for i := l; i <= r; i++ {
			ix.pull(i)
		}
	}
	for ; l >= 1; l >>= 1 {
		ix.pull(l)
	}
}

// skipDead advances head past tombstones (amortized O(1) per removal).
func (ix *Index) skipDead() {
	for ix.head < len(ix.slots) && ix.slots[ix.head] == nil {
		ix.head++
	}
}

// sync repairs the ancestors of the leaves appended, and of the head
// leaves removed, since the last repair. Every query and every other
// mutation starts here, which is the invariant the deferred repair rests
// on: nothing reads (or bubbles through) a stale ancestor.
func (ix *Index) sync() {
	if ix.synced < len(ix.slots) || ix.popLo < ix.popHi {
		ix.repair()
	}
}

// repair is sync's slow path (apart from it so that the check inlines
// into every query): each stale range once, level by level.
func (ix *Index) repair() {
	if ix.synced < len(ix.slots) {
		ix.pullRange(ix.synced, len(ix.slots)-1)
		ix.synced = len(ix.slots)
	}
	if ix.popLo < ix.popHi {
		ix.pullRange(ix.popLo, ix.popHi-1)
		ix.popLo = ix.popHi
	}
}

// Push appends j at the lowest-priority end (the live insertion point of
// FCFS order and of a replanner's unplanned tail) and reports whether it
// was queued: a job whose ID is already waiting is refused. Amortized
// O(1) within a burst — the leaf is written now, its ancestors by the
// next sync — plus the occasional doubling rebuild.
func (ix *Index) Push(j *job.Job) bool {
	slot := len(ix.slots)
	// The assignment Push makes anyway doubles as the duplicate check: an
	// ID that was already queued leaves the map's length where it was.
	n := len(ix.pos)
	ix.pos[j.ID] = slot
	if len(ix.pos) == n {
		for s, q := range ix.slots {
			if q != nil && q.ID == j.ID {
				ix.pos[j.ID] = s
				break
			}
		}
		return false
	}
	ix.slots = append(ix.slots, j)
	ix.alive++
	if len(ix.slots) > ix.size {
		ix.grow(len(ix.slots))
	} else {
		ix.writeLeaf(slot, j)
	}
	if ix.stats != nil {
		ix.stats.Pushes++
	}
	return true
}

// Remove takes a started job out of the index (tombstoning its slot).
// It reports whether the job was present and, if so, whether it sat in
// the part the last Rebuild wrote rather than in the tail pushed since —
// a replanner's plan versus its unplanned arrivals. O(log Q), amortized
// O(1) for the head of the order, plus the amortized compaction.
func (ix *Index) Remove(j *job.Job) (ok, rebuilt bool) {
	slot, ok := ix.pos[j.ID]
	if !ok || ix.slots[slot] != j {
		return false, false
	}
	switch {
	case ix.cnt[ix.size+slot] == 0:
		// Hidden slot (defensive: passes normally UnhideAll first): it is
		// already invisible and already debited from alive.
		ix.dropHidden(slot)
	case slot == ix.head:
		// Head pop: the leaf dies now, its ancestors at the next sync. The
		// slots between two pops are tombstones, so the stale leaves stay
		// one run, and k heads started at one instant cost O(k + log Q).
		ix.writeLeaf(slot, nil)
		ix.alive--
		if ix.popLo == ix.popHi {
			ix.popLo = slot
		}
		ix.popHi = slot + 1
	default:
		ix.sync()
		ix.setLeaf(slot, nil)
		ix.alive--
	}
	ix.slots[slot] = nil
	ix.skipDead()
	delete(ix.pos, j.ID)
	if ix.stats != nil {
		ix.stats.Removes++
	}
	rebuilt = slot < ix.rebuilt
	ix.maybeCompact()
	return true, rebuilt
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

// maybeCompact squeezes the tombstones out of the slot array once they
// dominate — amortized O(1) per removal, and O(slots in use) per sweep
// whatever the capacity. Never runs while a pass holds hidden slots
// (compaction renumbers slots; hidden bookkeeping must stay valid).
func (ix *Index) maybeCompact() {
	used := len(ix.slots)
	dead := used - ix.alive
	if len(ix.hiddenSlots) != 0 || dead <= 64 || dead <= ix.alive {
		return
	}
	n, rebuilt := 0, ix.rebuilt
	for s, j := range ix.slots {
		if j != nil {
			ix.slots[n] = j
			ix.pos[j.ID] = n
			n++
		} else if s < ix.rebuilt {
			rebuilt-- // a tombstone below the boundary pulls it down
		}
	}
	clear(ix.slots[n:])
	ix.slots, ix.rebuilt = ix.slots[:n], rebuilt
	ix.rebuildLeaves(used)
	if ix.stats != nil {
		ix.stats.Compactions++
	}
}

// Rebuild replaces the whole order with the concatenation of parts (a
// replanner passes its fresh plan). O(Q) — called once per plan epoch,
// amortized against the epoch's O(Q log Q) plan sort.
func (ix *Index) Rebuild(parts ...[]*job.Job) {
	used := len(ix.slots)
	clear(ix.slots)
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
	ix.alive, ix.rebuilt = n, n
	if n > ix.size {
		ix.grow(n)
	} else {
		ix.rebuildLeaves(max(used, n))
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
	ix.sync()
	ix.setLeaf(slot, nil)
	ix.alive--
	ix.hiddenSlots = append(ix.hiddenSlots, slot)
	if ix.stats != nil {
		ix.stats.Hides++
	}
	return true
}

// UnhideAll restores every hidden slot (end of a batched pass).
func (ix *Index) UnhideAll() {
	ix.sync()
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
	ix.sync()
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
	ix.sync()
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
	ix.sync()
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
	ix.sync()
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
	ix.sync()
	if ix.size == 0 || ix.alive == 0 {
		return widthInf
	}
	return ix.minW[1]
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
