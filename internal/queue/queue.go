// Package queue provides the indexed pending-queue structure behind the
// order policies' O(log Q) scheduling passes (DESIGN.md §14).
//
// An Index is the one store of an order policy's waiting queue: slots
// are queue positions in priority order, and a flat segment tree over
// the slots carries two aggregates per node — alive count (order
// statistics) and minimum job width (width-pruned scans). Push appends,
// Remove tombstones, and a replanning order policy rebuilds the whole
// index once per plan epoch; past the small-mode limit all queries are
// O(log Q) and allocation-free, so a scheduling pass over a 100k-deep
// backlog touches the handful of jobs that can actually start instead of
// every queued misfit.
//
// A short queue skips the tree: while the slot array holds at most
// indexSmallLimit slots, the index keeps one width per slot and no
// ID → slot table, and every query and lookup is a linear scan from the
// head — at the depths of a shallow stream (tens of jobs) a scan of a
// contiguous array beats any descent on constants. The first Push or
// Rebuild past the limit promotes the slots into the tree for good. Both
// modes keep the same slots, tombstones and compactions, so every
// operation count except Stats.Grows is the same in either.
//
// In the tree, Remove and Hide find a job's slot, and Push refuses a
// waiting ID, through a paged ID → slot table (idTable): 32 consecutive
// IDs share a page, so the near-sequential IDs of a workload's backlog
// sit in few pages, and consecutive operations mostly hit the page the
// last one used.
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
	"slices"

	"jobsched/internal/job"
)

// indexSmallLimit is the small-mode slot budget of new Indexes: up to
// this many slots (tombstones included) an Index scans, past it it
// promotes to the segment tree. Tests override it (0 builds the tree on
// the first push, tiny values hammer the promotion boundary).
var indexSmallLimit = 256

// widthInf is the leaf width of a dead or hidden slot: wider than any
// machine, so width-pruned descents never enter it.
const widthInf = math.MaxInt

// Index is the indexed waiting queue: jobs in priority order with
// order-statistic and width-minimum aggregates.
type Index struct {
	// slots holds the jobs in priority order; nil marks a removed slot.
	// A hidden slot (pass-local exclusion, see Hide) keeps its job but
	// its leaf is cleared.
	slots []*job.Job
	// widths is small mode's only leaf data, one per slot: the job's
	// width, or widthInf for a dead or hidden slot. Nil once promoted.
	widths []int
	// smallLimit is captured from indexSmallLimit at construction.
	smallLimit int
	// size is the segment-tree leaf capacity (a power of two ≥ len(slots));
	// node i's children are 2i and 2i+1, leaves start at index size. Zero
	// is the small-mode marker.
	size int
	cnt  []int32 // alive slots per subtree
	minW []int   // minimum job width per subtree (widthInf when none)
	// alive counts visible jobs (= Len; excludes removed and hidden).
	alive int
	// hiddenSlots lists the pass-locally hidden slots, in hide order.
	hiddenSlots []int
	// pos maps a queued job's ID to its slot. It is used only in tree mode.
	pos idTable
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
	// changes counts the mutations that can move a queued job to another
	// position of the visible order: successful Remove, Rebuild and Hide,
	// and an UnhideAll that restores something. Push (an append at the
	// tail) and compaction (a renumbering) leave it alone.
	changes uint64
	stats   *Stats
}

// NewIndex returns an empty index, in small mode.
func NewIndex() *Index { return &Index{smallLimit: indexSmallLimit} }

// SetStats attaches (or, with nil, detaches) an operation counter. The
// pointer survives Rebuild, so one counter accumulates across plan epochs.
func (ix *Index) SetStats(s *Stats) { ix.stats = s }

// small reports whether the index is still in small mode (no tree, no
// ID table).
func (ix *Index) small() bool { return ix.size == 0 }

// Len returns the number of visible (alive, unhidden) jobs.
func (ix *Index) Len() int { return ix.alive }

// Changes returns the order-change counter: it moves on every mutation
// except Push, so a caller that remembers it knows whether the visible
// order since is its old order plus appended jobs (see
// sched.ConservativeStarter).
func (ix *Index) Changes() uint64 { return ix.changes }

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

// put writes slot's leaf from j (nil = dead or hidden): its width in
// small mode; in the tree, the leaf and its ancestors.
func (ix *Index) put(slot int, j *job.Job) {
	if ix.small() {
		if j == nil {
			ix.widths[slot] = widthInf
		} else {
			ix.widths[slot] = j.Nodes
		}
		return
	}
	ix.sync()
	ix.writeLeaf(slot, j)
	ix.pullRange(slot, slot)
}

// visible reports whether slot holds a job that is neither removed nor
// hidden.
func (ix *Index) visible(slot int) bool {
	if ix.small() {
		return ix.widths[slot] != widthInf
	}
	return ix.cnt[ix.size+slot] > 0
}

// slotOf returns j's slot, or -1 when j itself is not queued (absent, or
// a different job carrying a queued job's ID). O(1) in the tree; in small
// mode a pointer scan from the head.
func (ix *Index) slotOf(j *job.Job) int {
	if ix.small() {
		for s := ix.head; s < len(ix.slots); s++ {
			if ix.slots[s] == j {
				return s
			}
		}
		return -1
	}
	if s := ix.pos.get(j.ID); s >= 0 && ix.slots[s] == j {
		return s
	}
	return -1
}

// promote leaves small mode for good: it builds the ID → slot table
// and the tree from the current slots, hidden ones included.
func (ix *Index) promote() {
	ix.pos = newIDTable(len(ix.slots))
	for s, j := range ix.slots {
		if j != nil {
			ix.pos.set(j.ID, s)
		}
	}
	ix.widths = nil
	ix.grow(len(ix.slots))
}

// refill rewrites small mode's widths from slots, which must hold no
// tombstone and no hidden job (after a Rebuild or a compaction).
func (ix *Index) refill() {
	ix.widths = ix.widths[:0]
	for _, j := range ix.slots {
		ix.widths = append(ix.widths, j.Nodes)
	}
	ix.head = 0
}

// grow allocates the tree (at promotion), or reallocates it, for at least
// `need` leaves and rebuilds it.
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
// next sync — plus the occasional doubling rebuild; in small mode the
// refusal is an ID scan from the head.
func (ix *Index) Push(j *job.Job) bool {
	if ix.small() {
		for _, q := range ix.slots[ix.head:] {
			if q != nil && q.ID == j.ID {
				return false
			}
		}
		ix.slots = append(ix.slots, j)
		ix.widths = append(ix.widths, j.Nodes)
		ix.alive++
		if len(ix.slots) > ix.smallLimit {
			ix.promote()
		}
	} else {
		slot := len(ix.slots)
		if !ix.pos.add(j.ID, slot) {
			return false
		}
		ix.slots = append(ix.slots, j)
		ix.alive++
		if len(ix.slots) > ix.size {
			ix.grow(len(ix.slots))
		} else {
			ix.writeLeaf(slot, j)
		}
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
	slot := ix.slotOf(j)
	if slot < 0 {
		return false, false
	}
	switch {
	case !ix.visible(slot):
		// Hidden slot (defensive: passes normally UnhideAll first): it is
		// already invisible and already debited from alive.
		ix.dropHidden(slot)
	case slot == ix.head && !ix.small():
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
		ix.put(slot, nil)
		ix.alive--
	}
	ix.slots[slot] = nil
	ix.skipDead()
	if !ix.small() {
		ix.pos.del(j.ID)
	}
	ix.changes++
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
			if !ix.small() {
				ix.pos.set(j.ID, n)
			}
			n++
		} else if s < ix.rebuilt {
			rebuilt-- // a tombstone below the boundary pulls it down
		}
	}
	clear(ix.slots[n:])
	ix.slots, ix.rebuilt = ix.slots[:n], rebuilt
	if ix.small() {
		ix.refill()
	} else {
		ix.rebuildLeaves(used)
	}
	if ix.stats != nil {
		ix.stats.Compactions++
	}
}

// Rebuild replaces the whole order with the concatenation of parts (a
// replanner passes its fresh plan). O(Q) — called once per plan epoch,
// amortized against the epoch's O(Q log Q) plan sort.
func (ix *Index) Rebuild(parts ...[]*job.Job) {
	used := len(ix.slots)
	if !ix.small() {
		// The old IDs leave one by one, so that their pages recycle.
		for _, j := range ix.slots {
			if j != nil {
				ix.pos.del(j.ID)
			}
		}
	}
	clear(ix.slots)
	ix.slots = ix.slots[:0]
	ix.hiddenSlots = ix.hiddenSlots[:0]
	n := 0
	for _, part := range parts {
		for _, j := range part {
			ix.slots = append(ix.slots, j)
			if !ix.small() {
				ix.pos.set(j.ID, n)
			}
			n++
		}
	}
	ix.alive, ix.rebuilt = n, n
	ix.changes++
	switch {
	case ix.small() && n <= ix.smallLimit:
		ix.refill()
	case ix.small():
		ix.promote()
	case n > ix.size:
		ix.grow(n)
	default:
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
	slot := ix.slotOf(j)
	if slot < 0 || !ix.visible(slot) {
		return false
	}
	ix.put(slot, nil)
	ix.alive--
	ix.hiddenSlots = append(ix.hiddenSlots, slot)
	ix.changes++
	if ix.stats != nil {
		ix.stats.Hides++
	}
	return true
}

// UnhideAll restores every hidden slot (end of a batched pass).
func (ix *Index) UnhideAll() {
	if len(ix.hiddenSlots) == 0 {
		return
	}
	for _, slot := range ix.hiddenSlots {
		if j := ix.slots[slot]; j != nil {
			ix.put(slot, j)
			ix.alive++
		}
	}
	ix.changes++
	ix.hiddenSlots = ix.hiddenSlots[:0]
}

// scan is small mode's cursor step: the first slot at or after p whose
// width is at most maxNodes (dead and hidden slots are widthInf), or -1.
func (ix *Index) scan(p, maxNodes int) int {
	for s := max(p, ix.head); s < len(ix.widths); s++ {
		if ix.widths[s] <= maxNodes {
			return s
		}
	}
	return -1
}

// nextAliveSlot returns the first visible slot > after, or -1.
func (ix *Index) nextAliveSlot(after int) int {
	if ix.alive == 0 {
		return -1
	}
	p := max(after+1, 0)
	if p >= len(ix.slots) {
		return -1
	}
	if ix.stats != nil {
		ix.stats.Steps++
	}
	if ix.small() {
		return ix.scan(p, widthInf-1)
	}
	ix.sync()
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
// skipped in O(log Q) total, not O(run length) (small mode scans them).
func (ix *Index) nextFitSlot(after, maxNodes int) int {
	if ix.alive == 0 {
		return -1
	}
	p := max(after+1, 0)
	if p >= len(ix.slots) {
		return -1
	}
	if ix.stats != nil {
		ix.stats.FitQueries++
	}
	if ix.small() {
		return ix.scan(p, maxNodes)
	}
	ix.sync()
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
// position (0-based) in the priority order. O(log Q); in small mode a
// scan from the head.
func (ix *Index) Rank(slot int) int {
	if cap(ix.slots) == 0 {
		return 0 // never held a job: uncounted, as in an index without a tree
	}
	if ix.stats != nil {
		ix.stats.RankQueries++
	}
	res := 0
	if ix.small() {
		for _, w := range ix.widths[ix.head:max(slot, ix.head)] {
			if w != widthInf {
				res++
			}
		}
		return res
	}
	ix.sync()
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
// O(log Q); in small mode a scan from the head.
func (ix *Index) Select(k int) (*job.Job, int) {
	if k < 0 || k >= ix.alive {
		return nil, -1
	}
	if ix.stats != nil {
		ix.stats.SelectQueries++
	}
	if ix.small() {
		for s := ix.head; ; s++ {
			if ix.widths[s] != widthInf {
				if k == 0 {
					return ix.slots[s], s
				}
				k--
			}
		}
	}
	ix.sync()
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
// all fit?" precheck, a scan in small mode); an empty index reports an
// unsatisfiably wide job.
func (ix *Index) MinNodes() int {
	if ix.alive == 0 {
		return widthInf
	}
	if ix.small() {
		return slices.Min(ix.widths[ix.head:])
	}
	ix.sync()
	return ix.minW[1]
}

// AppendOrdered appends the visible jobs in priority order to dst. Tests
// use it as the differential oracle against the cursor API; passes
// iterate with a Cursor instead.
func (ix *Index) AppendOrdered(dst []*job.Job) []*job.Job {
	for s, j := range ix.slots {
		if j != nil && ix.visible(s) {
			dst = append(dst, j)
		}
	}
	return dst
}

// Cursor iterates the visible jobs in priority order without
// materializing a slice. Zero-allocation: the cursor is a value and every
// step is a tree descent (a scan in small mode). A cursor is invalidated
// by any index mutation except Hide of a job at or before the cursor (the
// batched passes' usage: hide what you just picked, keep iterating).
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
