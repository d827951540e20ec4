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
// Tree is the kernel schedulers use (through the Kernel interface).
// Reference, the original naive implementation, is the brute-force oracle
// of the differential tests (differential_test.go, FuzzProfileOps,
// FuzzProfileTree) and the "before" side of the recorded BENCH_1.json.
//
// # The blocked step array
//
// Tree keeps the steps in one sorted sequence cut into blocks of one to
// 2·B steps (B = blockSteps). Each block carries a lazy add for all of its
// steps and a min and max bounding their free counts; a second level of
// groups bounds every 2^groupShift blocks the same way.
//
//   - EarliestFit is a single forward pass with skip-ahead. A group or
//     block whose max is short of the job's width is skipped whole, one
//     whose min admits the job extends the open window by its whole span,
//     and only mixed blocks are scanned step by step. On a staircase of S
//     steps a query reads about S/(B·2^groupShift) group bounds plus one
//     group's blocks and one block's steps; on a profile that crosses the
//     job's width everywhere it scans what a flat array would, plus one
//     bound per block.
//   - Reserve/Release split at most two boundaries (a memmove inside one
//     block, O(B)), add lazily to the interior blocks, update the edge
//     blocks' steps and re-coalesce only at the interval edges: inner
//     boundaries cannot merge because both sides shift by the same amount.
//     A block that grows past 2·B steps is split in two, an emptied one is
//     dropped. Reset keeps every block's storage, so a scratch profile
//     rebuilt on every pass performs zero allocations once warm.
//   - Bounds are kept valid, not always tight: an edit widens them only
//     as far as the edited steps need and marks the block loose, and a
//     scan that crosses a whole loose block makes its bounds exact after
//     it. A profile of at most 2·B steps is one block, scanned like a
//     flat array.
//   - FreeAt/MinFree/EarliestFit locate their starting step through a
//     last-query cursor: schedulers query monotonically non-decreasing
//     times, so the covering step is almost always the cursor's step or
//     one of the next few; a miss binary-searches the block starts and
//     then one block, O(log S).
package profile

import (
	"fmt"
	"math"
	"slices"
)

// Infinity is the time horizon of the last step.
const Infinity int64 = math.MaxInt64

// blockSteps is B: a block splits into two halves of B steps when it grows
// past 2·B. groupShift sets the second level: a group summarizes 2^5 = 32
// consecutive blocks. Both were chosen on the shape suite (shape_test.go):
// larger blocks make every boundary split and every summary recompute move
// more steps, smaller ones and smaller groups make a deep scan read more
// summaries.
const (
	blockSteps = 64
	groupShift = 5
)

type step struct {
	at   int64 // step start time
	free int   // free nodes in [at, next.at), before the block's add
}

// block is a run of consecutive steps. Every step's true free count is
// its free plus add. min and max bound the steps' free (add excluded, so
// a lazy add leaves them valid): min <= free <= max for every step. They
// are exact unless loose, which an edit inside the block sets when it may
// have removed an extreme; tighten recomputes them. first copies the first
// step's time, so that searches and skips over blocks read no steps.
type block struct {
	steps    []step
	first    int64
	add      int
	min, max int
	loose    bool
}

// group bounds the true free counts of 2^groupShift consecutive blocks
// (fewer for the last group), unless stale: an edit to one of its blocks
// that may have widened their bounds, or a block split or dropped in front
// of it, makes the group recompute its bounds from its blocks' on its next
// read.
type group struct {
	min, max int
	stale    bool
}

// tighten makes loose bounds exact and returns the steps it read.
func (blk *block) tighten() int {
	if !blk.loose {
		return 0
	}
	blk.min, blk.max = blk.steps[0].free, blk.steps[0].free
	for _, s := range blk.steps[1:] {
		blk.min = min(blk.min, s.free)
		blk.max = max(blk.max, s.free)
	}
	blk.loose = false
	return len(blk.steps)
}

// summarize recomputes group g's bounds if they are stale and returns the
// block bounds it read.
func (t *Tree) summarize(g int) int {
	grp := &t.groups[g]
	if !grp.stale {
		return 0
	}
	blocks := t.blocks[g<<t.gshift : min((g+1)<<t.gshift, len(t.blocks))]
	grp.min, grp.max = blocks[0].min+blocks[0].add, blocks[0].max+blocks[0].add
	for i := range blocks[1:] {
		blk := &blocks[1+i]
		grp.min = min(grp.min, blk.min+blk.add)
		grp.max = max(grp.max, blk.max+blk.add)
	}
	grp.stale = false
	return len(blocks)
}

// regroup resizes the groups to the blocks after block b was split or
// dropped, and marks every group from b's on stale: their blocks moved.
func (t *Tree) regroup(b int) {
	n := (len(t.blocks) + 1<<t.gshift - 1) >> t.gshift
	for len(t.groups) < n {
		t.groups = append(t.groups, group{})
	}
	t.groups = t.groups[:n]
	for g := b >> t.gshift; g < n; g++ {
		t.groups[g].stale = true
	}
}

// val returns the true free count of step k of block b.
func (t *Tree) val(b, k int) int { return t.blocks[b].steps[k].free + t.blocks[b].add }

// blockStart returns the start of block b, Infinity past the last block.
func (t *Tree) blockStart(b int) int64 {
	if b < len(t.blocks) {
		return t.blocks[b].first
	}
	return Infinity
}

// prev returns the position before step k of block b (ok false at the
// profile's first step).
func (t *Tree) prev(b, k int) (int, int, bool) {
	if k > 0 {
		return b, k - 1, true
	}
	if b == 0 {
		return 0, 0, false
	}
	return b - 1, len(t.blocks[b-1].steps) - 1, true
}

// span returns the index range of block b's steps that lie in the
// position range [(bs, ks), (be, ke)).
func (t *Tree) span(b, bs, ks, be, ke int) (lo, hi int) {
	lo, hi = 0, len(t.blocks[b].steps)
	if b == bs {
		lo = ks
	}
	if b == be {
		hi = ke
	}
	return lo, hi
}

// seek returns the position of the step covering time at (the last step
// starting at or before it; the first step when at precedes the profile),
// starting from the query cursor: the common monotone-query case resolves
// in a few compares, anything else falls back to locate.
func (t *Tree) seek(at int64) (int, int) {
	b, k := t.cb, t.ck
	if b >= len(t.blocks) || k >= len(t.blocks[b].steps) || t.blocks[b].steps[k].at > at {
		b, k = 0, 0
	}
	s := t.blocks[b].steps
	for n := 0; n < 5 && k+1 < len(s); n, k = n+1, k+1 {
		if s[k+1].at > at {
			t.cb, t.ck = b, k
			return b, k
		}
	}
	t.cb, t.ck = t.locate(at, b, k)
	return t.cb, t.ck
}

// locate returns the position of the step covering time at, searching
// forward from step k of block b, which starts at or before at (or is the
// first step): a binary search of the block starts, then of one block.
func (t *Tree) locate(at int64, b, k int) (int, int) {
	lo, hi := b+1, len(t.blocks)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); t.blocks[m].first > at {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo-1 != b {
		b, k = lo-1, 0
	}
	s := t.blocks[b].steps
	lo, hi = k+1, len(s)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s[m].at > at {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return b, lo - 1
}

// splitAt ensures a step boundary exists exactly at time at and returns
// its position, searching forward from step k of block b (see locate).
// Times before the first step extend the profile backwards with the first
// step's value. The new step copies a neighbor in its own block, so no
// bound changes.
func (t *Tree) splitAt(at int64, b, k int) (int, int) {
	b, k = t.locate(at, b, k)
	blk := &t.blocks[b]
	if blk.steps[k].at == at {
		return b, k
	}
	free := blk.steps[k].free
	if blk.steps[k].at < at {
		k++
	}
	blk.steps = append(blk.steps, step{})
	copy(blk.steps[k+1:], blk.steps[k:])
	blk.steps[k] = step{at: at, free: free}
	blk.first = blk.steps[0].at
	return b, k
}

// splitAfter ensures a step boundary exists at time at, which follows the
// start of step k of block b and does not pass the next step's, and
// returns its position.
func (t *Tree) splitAfter(at int64, b, k int) (int, int) {
	blk := &t.blocks[b]
	if k+1 < len(blk.steps) && blk.steps[k+1].at == at {
		return b, k + 1
	}
	if k+1 == len(blk.steps) && b+1 < len(t.blocks) && t.blocks[b+1].first == at {
		return b + 1, 0
	}
	blk.steps = append(blk.steps, step{})
	copy(blk.steps[k+2:], blk.steps[k+1:])
	blk.steps[k+1] = step{at: at, free: blk.steps[k].free}
	return b, k + 1
}

// remove deletes step k of block b, dropping the block if it empties (its
// storage moves behind the live blocks for split to reuse). Only a block's
// first step can hold a value no other step of the block has: coalescing
// removes a step equal to its predecessor.
func (t *Tree) remove(b, k int) {
	blk := &t.blocks[b]
	blk.steps = append(blk.steps[:k], blk.steps[k+1:]...)
	if len(blk.steps) > 0 {
		if k == 0 {
			blk.first, blk.loose = blk.steps[0].at, true
		}
		return
	}
	spare := blk.steps
	copy(t.blocks[b:], t.blocks[b+1:])
	t.blocks[len(t.blocks)-1] = block{steps: spare}
	t.blocks = t.blocks[:len(t.blocks)-1]
	t.regroup(b)
}

// coalesce removes step k of block b if it repeats its predecessor's free
// count, keeping the canonical form.
func (t *Tree) coalesce(b, k int) {
	if k > 0 {
		if blk := &t.blocks[b]; blk.steps[k-1].free == blk.steps[k].free { // same block, same add
			blk.steps = append(blk.steps[:k], blk.steps[k+1:]...)
		}
	} else if b > 0 && t.val(b-1, len(t.blocks[b-1].steps)-1) == t.val(b, 0) {
		t.remove(b, 0)
	}
}

// rebalance splits every block in [lo, hi] that has grown past 2·B steps
// into two halves, reusing spare block storage. Both halves get exact
// bounds: a split comes once per B or so insertions into a block, so the
// recompute is cheap, and blocks behind an edited tail stay tight.
func (t *Tree) rebalance(lo, hi int) {
	for b := min(hi, len(t.blocks)-1); b >= lo; b-- {
		if len(t.blocks[b].steps) <= 2*t.half {
			continue
		}
		var spare []step
		if n := len(t.blocks); n < cap(t.blocks) {
			spare = t.blocks[:n+1][n].steps[:0]
		}
		t.blocks = slices.Insert(t.blocks, b+1, block{steps: spare})
		left, right := &t.blocks[b], &t.blocks[b+1]
		h := len(left.steps) / 2
		right.steps = append(right.steps, left.steps[h:]...)
		right.first, right.add, right.loose = right.steps[0].at, left.add, true
		left.steps, left.loose = left.steps[:h], true
		left.tighten()
		right.tighten()
		t.regroup(b)
	}
}

// outOfRange panics at the first step of blk[lo:hi) that adding d took
// out of [0, machine size].
func (t *Tree) outOfRange(blk *block, lo, hi, d int) {
	for _, s := range blk.steps[lo:hi] {
		if v := s.free + blk.add; v < 0 {
			panic(fmt.Sprintf("profile: overcommit at t=%d (%d free after reserving %d)", s.at, v, -d))
		} else if v > t.nodes {
			panic(fmt.Sprintf("profile: release beyond machine size at t=%d", s.at))
		}
	}
}

// apply adds d to every step in [(bs, ks), (be, ke)) — both boundaries
// already split — re-coalesces the two edges and splits the blocks that
// grew too large. A whole block takes d lazily when its bounds show that
// no step leaves [0, machine size]; everything else is updated step by
// step, which panics at the first step out of range (an overcommitting
// Reserve, or a Release beyond the machine size). A group stays fresh
// while its bounds still cover its edited blocks'.
func (t *Tree) apply(bs, ks, be, ke, d int) {
	visited := 0
	for b := bs; b <= be; b++ {
		blk := &t.blocks[b]
		lo, hi := t.span(b, bs, ks, be, ke)
		if lo == hi {
			continue
		}
		visited++
		if lo == 0 && hi == len(blk.steps) && blk.min+blk.add+d >= 0 && blk.max+blk.add+d <= t.nodes {
			blk.add += d
		} else {
			// Steps only move in d's direction: one bound widens.
			mn, mx, s := blk.min, blk.max, blk.steps[lo:hi]
			if d < 0 {
				for i := range s {
					s[i].free += d
					mn = min(mn, s[i].free)
				}
			} else {
				for i := range s {
					s[i].free += d
					mx = max(mx, s[i].free)
				}
			}
			if mn+blk.add < 0 || mx+blk.add > t.nodes {
				t.outOfRange(blk, lo, hi, d)
			}
			blk.min, blk.max, blk.loose = mn, mx, true
			visited += hi - lo
		}
		if len(t.groups) == 1 {
			continue // a lone group is never read (see fit)
		}
		if grp := &t.groups[b>>t.gshift]; blk.min+blk.add < grp.min || blk.max+blk.add > grp.max {
			grp.stale = true
		}
	}
	t.scanned(visited)
	// The end edge first, so the start position stays valid. Most edges
	// differ from their predecessor in the same block: no call.
	if s := t.blocks[be].steps; ke == 0 || s[ke-1].free == s[ke].free {
		t.coalesce(be, ke)
	}
	if s := t.blocks[bs].steps; ks == 0 || s[ks-1].free == s[ks].free {
		t.coalesce(bs, ks)
	}
	// Only the edge blocks grew (one of them may be gone).
	if be > bs || bs < len(t.blocks) && len(t.blocks[bs].steps) > 2*t.half {
		t.rebalance(bs, be)
	}
}

// fit finds the earliest window of `nodes` free nodes for `duration`
// seconds from notBefore. It returns the window's start (Infinity if no
// finite start admits the job), the position of the step holding it, the
// position of its last step when the scan stepped through it (lk = -1
// when a group's or block's bounds completed the window), and the steps
// and bounds it visited.
//
// The scan is a single forward pass with skip-ahead: when a step, block or
// group short of `nodes` blocks the window, the window reopens at the next
// step that admits the job, and earlier steps are never revisited. Each
// group and block the scan enters is judged by its bounds first: all short
// of `nodes` (skipped), all admitting it (the open window extends over
// it), or mixed (the scan descends). A skipped block is not read beyond
// its bounds.
func (t *Tree) fit(nodes int, duration, notBefore int64) (start int64, fb, fk, lb, lk, visited int) {
	if nodes > t.nodes {
		panic(fmt.Sprintf("profile: job wants %d nodes on a %d-node machine", nodes, t.nodes))
	}
	if duration <= 0 {
		panic("profile: EarliestFit requires positive duration")
	}
	fb, fk = t.seek(notBefore)
	anchor := fb
	// Before the profile start, the search begins at the profile start.
	start = max(notBefore, t.blocks[fb].steps[fk].at)
	end := satEnd(start, duration)
	open := true // start and end hold the window; else it reopens at the next fit
	blocks, groups, gs := t.blocks, t.groups, t.gshift
	for g := anchor >> gs; g < len(groups); g++ {
		lo, hi := max(g<<gs, anchor), min((g+1)<<gs, len(blocks))
		// A lone group bounds no more than its blocks do.
		if grp := &groups[g]; len(groups) > 1 {
			visited++
			if grp.stale {
				visited += t.summarize(g)
			}
			if grp.max < nodes {
				// Skip this group and every following one short of nodes.
				for g+1 < len(groups) && !groups[g+1].stale && groups[g+1].max < nodes {
					g++
					visited++
				}
				open = false
				continue
			}
			if open && grp.min >= nodes {
				if t.blockStart(hi) >= end {
					return start, fb, fk, 0, -1, visited
				}
				continue
			}
		}
		for b := lo; b < hi; b++ {
			blk := &blocks[b]
			w := nodes - blk.add // the threshold on the block's raw free counts
			visited++
			if blk.max < w {
				// Skip this block and every following one of the group
				// short of nodes.
				for b+1 < hi && blocks[b+1].max+blocks[b+1].add < nodes {
					b++
					visited++
				}
				open = false
				continue
			}
			next := t.blockStart(b + 1)
			if blk.min >= w {
				if !open { // only after a skip, so at the block's first step
					fb, fk, start, open = b, 0, blk.first, true
					end = satEnd(start, duration)
				}
				if next >= end {
					return start, fb, fk, 0, -1, visited
				}
				continue
			}
			// Mixed, or loose: scan the steps, alternating between
			// looking for a step that admits the job (window closed) and
			// extending the window until it lasts duration.
			s, k := blk.steps, 0
			if b == anchor {
				k = fk
			}
			from := k
			for k < len(s) {
				if !open {
					for k < len(s) && s[k].free < w {
						k++
					}
					if k == len(s) {
						break
					}
					fb, fk, start, open = b, k, s[k].at, true
					end = satEnd(start, duration)
				}
				for ; k < len(s); k++ {
					if s[k].free < w {
						open = false
						break
					}
					segEnd := next
					if k+1 < len(s) {
						segEnd = s[k+1].at
					}
					if segEnd >= end {
						return start, fb, fk, b, k, visited + k + 1 - from
					}
				}
			}
			visited += len(s) - from
			// A loose block scanned whole gets exact bounds, so that a
			// later scan may skip it; the block a scan starts in is
			// scanned anyway.
			if blk.loose && b != anchor {
				if grp := &groups[g]; blk.min+blk.add == grp.min || blk.max+blk.add == grp.max {
					grp.stale = true // the group's bounds may tighten too
				}
				visited += blk.tighten()
			}
		}
	}
	// Only a last block or group short of `nodes` ends the scan here.
	return Infinity, 0, 0, 0, -1, visited
}
