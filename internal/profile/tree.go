package profile

import (
	"fmt"
	"strings"

	"jobsched/internal/job"
)

// Tree is the O(log S) availability-profile kernel: the canonical step
// function is stored in a balanced binary search tree keyed by step start
// time, with per-subtree minimum/maximum free-node aggregates and lazy
// range-add tags. It replaced the array kernel as the scratch profile of
// the backfilling schedulers — at deep backlogs (~100k queued jobs) the
// array's O(S) memmove per reservation and O(S) fit scan become the
// simulation hot path again (BENCH_3.json), while every Tree operation
// stays logarithmic:
//
//   - Reserve/Release/ReserveClamped split at most two boundaries and
//     apply one lazy range-add, O(log S) (ReserveClamped walks the steps
//     it actually clamps, O(k + log S) for k clamped steps — drains are
//     few and short, and clamping is not expressible as a range-add);
//   - EarliestFit alternates two aggregate-guided descents — "first step
//     at/after t short of w nodes" via subtree minima and "first step
//     at/after t with w nodes free" via subtree maxima — so a query costs
//     O((b+1) log S) where b is the number of blocking runs crossed,
//     O(log S) in the common immediately-feasible case (the array
//     kernel's skip-ahead scan is O(S) regardless);
//   - FreeAt/MinFree are single descents, O(log S).
//
// Balance is a deterministic treap: node priorities are splitmix64 hashes
// of a per-tree allocation counter, so the structure — and therefore
// every operation count and telemetry reading — is identical across runs
// and worker counts. No wall clock, no math/rand.
//
// The brute-force Reference remains the differential-testing oracle: the
// oracle suite (differential_test.go, FuzzProfileOps, FuzzProfileTree)
// drives Tree, the array kernel and Reference through identical op
// sequences and requires identical results and identical canonical step
// functions.
//
// Small profiles bypass the tree entirely: while the step count stays at
// or below treeSmallLimit, operations delegate to an embedded array
// kernel (profile.go) — at scheduler-typical sizes (tens to hundreds of
// steps) a contiguous array beats any pointer structure on constants,
// and the array kernel is proven against the oracle. The first growth
// past the limit promotes the steps into the treap, where they stay
// until the next Reset. Asymptotics are unchanged (the array phase is
// bounded by the constant limit), and the differential suite drives the
// limit to 0 and to tiny values so both regimes and the promotion
// boundary sit under the oracle. Tree alone counts Stats and runs
// batched passes; the array only answers queries and mutations.
//
// A Tree is not safe for concurrent use: queries push lazy tags down the
// descent path. Each simulation goroutine must own its profiles.
type Tree struct {
	pool []tnode
	free []int32 // freelist of recycled pool slots
	root int32
	size int // machine size
	seq  uint64
	// small is the array-mode kernel (nil once promoted); spare retains a
	// promoted-away array so Reset can return to array mode without
	// allocating. smallLimit is captured from treeSmallLimit at
	// construction.
	small      *array
	spare      *array
	smallLimit int
	// pass tracks an open batched scheduling pass: edge coalescing is
	// deferred (dirty boundary keys collected) and replayed at CommitPass,
	// so mid-pass reservations skip the per-edge delete work. The step
	// function is unaffected — only the canonical representation is
	// temporarily relaxed (equal-valued neighbors may coexist).
	inPass  bool
	passNow int64
	dirty   []int64
	stats   *Stats
}

const nilNode = int32(-1)

// treeSmallLimit is the array-mode step budget of new Trees: profiles at
// or below this many steps run on the embedded array kernel, larger ones
// promote to the treap. Tests override it (0 forces pure tree mode, tiny
// values hammer the promotion boundary).
var treeSmallLimit = 1024

// tnode is one step of the profile plus its tree bookkeeping. val/min/max
// are true values provided every ancestor's lazy tag has been pushed;
// add is the pending addition for both children's subtrees.
type tnode struct {
	key      int64
	val      int
	min, max int
	add      int
	pri      uint64
	l, r     int32
	count    int32 // subtree node count
}

// splitmix64 is the deterministic priority source of the treap: a
// well-mixed hash of the allocation counter. Deliberately not math/rand —
// tree shape must be reproducible across runs and platforms.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewTree returns a tree-backed profile for a machine with the given node
// count, entirely free from time `from` on.
func NewTree(nodes int, from int64) *Tree {
	t := &Tree{smallLimit: treeSmallLimit}
	t.Reset(nodes, from)
	return t
}

// Nodes returns the machine size.
func (t *Tree) Nodes() int { return t.size }

// SetStats attaches (or, with nil, detaches) an operation counter. The
// pointer survives Reset — a scratch profile keeps counting across the
// per-pass rebuilds, which is exactly the per-run total the telemetry
// layer reports.
func (t *Tree) SetStats(s *Stats) { t.stats = s }

// Reset reinitializes t to a fully free machine of the given size from
// time `from` on, reusing the node pool (and, in array mode, the spare
// array from an earlier promotion). An open pass is abandoned.
func (t *Tree) Reset(nodes int, from int64) {
	if nodes <= 0 {
		panic("profile: machine must have at least one node")
	}
	t.size = nodes
	t.pool = t.pool[:0]
	t.free = t.free[:0]
	t.inPass = false
	t.dirty = t.dirty[:0]
	if t.smallLimit > 0 {
		if t.small == nil {
			if t.spare != nil {
				t.small, t.spare = t.spare, nil
			} else {
				t.small = newArray(nodes, from)
			}
		}
		t.small.Reset(nodes, from)
		t.root = nilNode
	} else {
		t.small = nil
		t.root = t.alloc(from, nodes)
	}
	if t.stats != nil {
		t.stats.Resets++
	}
}

// promote rebuilds the treap from the array kernel's steps (right-edge
// merges keep the treap's heap order under the deterministic priorities)
// and retires the array to the spare slot for the next Reset. Called
// after any growth past smallLimit; promotion cost is O(limit · log
// limit), amortized against the reservations that grew the profile.
func (t *Tree) promote() {
	p := t.small
	t.small = nil
	t.pool = t.pool[:0]
	t.free = t.free[:0]
	t.root = nilNode
	for _, s := range p.steps {
		t.root = t.merge(t.root, t.alloc(s.at, s.free))
	}
	t.spare = p
}

// maybePromote moves to tree mode once the array kernel outgrows the
// small-profile budget.
func (t *Tree) maybePromote() {
	if t.small != nil && len(t.small.steps) > t.smallLimit {
		t.promote()
	}
}

// Clone returns an independent deep copy (stats detached).
func (t *Tree) Clone() *Tree {
	c := &Tree{size: t.size, root: t.root, seq: t.seq, smallLimit: t.smallLimit}
	if t.small != nil {
		c.small = t.small.Clone()
		c.root = nilNode
		return c
	}
	c.pool = append([]tnode(nil), t.pool...)
	c.free = append([]int32(nil), t.free...)
	return c
}

// CloneInto copies t into dst, reusing dst's pool storage (the
// allocation-free counterpart of Clone for scratch pools). dst keeps its
// own stats attachment but adopts t's mode and small-profile budget; an
// open pass on dst is abandoned.
func (t *Tree) CloneInto(dst *Tree) {
	dst.size = t.size
	dst.smallLimit = t.smallLimit
	dst.inPass = false
	dst.dirty = dst.dirty[:0]
	if t.small != nil {
		if dst.small == nil {
			if dst.spare != nil {
				dst.small, dst.spare = dst.spare, nil
			} else {
				dst.small = newArray(t.size, 0)
			}
		}
		t.small.CloneInto(dst.small)
		dst.root = nilNode
		dst.pool = dst.pool[:0]
		dst.free = dst.free[:0]
		return
	}
	if dst.small != nil {
		dst.spare, dst.small = dst.small, nil
	}
	dst.root = t.root
	dst.seq = t.seq
	dst.pool = append(dst.pool[:0], t.pool...)
	dst.free = append(dst.free[:0], t.free...)
}

func (t *Tree) alloc(key int64, val int) int32 {
	pri := splitmix64(t.seq)
	t.seq++
	n := tnode{key: key, val: val, min: val, max: val, pri: pri, l: nilNode, r: nilNode, count: 1}
	if k := len(t.free); k > 0 {
		i := t.free[k-1]
		t.free = t.free[:k-1]
		t.pool[i] = n
		return i
	}
	t.pool = append(t.pool, n)
	return int32(len(t.pool) - 1)
}

func (t *Tree) recycle(i int32) { t.free = append(t.free, i) }

// applyDelta adds d to every step of subtree i (true values plus the
// pending tag for the children).
func (t *Tree) applyDelta(i int32, d int) {
	if i == nilNode || d == 0 {
		return
	}
	n := &t.pool[i]
	n.val += d
	n.min += d
	n.max += d
	n.add += d
}

// push moves i's pending tag to its children.
func (t *Tree) push(i int32) {
	n := &t.pool[i]
	if n.add != 0 {
		t.applyDelta(n.l, n.add)
		t.applyDelta(n.r, n.add)
		n.add = 0
	}
}

// pull recomputes i's aggregates from its (tag-consistent) children.
func (t *Tree) pull(i int32) {
	n := &t.pool[i]
	n.count = 1
	n.min = n.val
	n.max = n.val
	if n.l != nilNode {
		l := &t.pool[n.l]
		n.count += l.count
		if l.min < n.min {
			n.min = l.min
		}
		if l.max > n.max {
			n.max = l.max
		}
	}
	if n.r != nilNode {
		r := &t.pool[n.r]
		n.count += r.count
		if r.min < n.min {
			n.min = r.min
		}
		if r.max > n.max {
			n.max = r.max
		}
	}
}

// splitLT splits subtree i into (keys < key, keys >= key).
func (t *Tree) splitLT(i int32, key int64) (int32, int32) {
	if i == nilNode {
		return nilNode, nilNode
	}
	t.push(i)
	if t.pool[i].key < key {
		a, b := t.splitLT(t.pool[i].r, key)
		t.pool[i].r = a
		t.pull(i)
		return i, b
	}
	a, b := t.splitLT(t.pool[i].l, key)
	t.pool[i].l = b
	t.pull(i)
	return a, i
}

// splitLE splits subtree i into (keys <= key, keys > key).
func (t *Tree) splitLE(i int32, key int64) (int32, int32) {
	if i == nilNode {
		return nilNode, nilNode
	}
	t.push(i)
	if t.pool[i].key <= key {
		a, b := t.splitLE(t.pool[i].r, key)
		t.pool[i].r = a
		t.pull(i)
		return i, b
	}
	a, b := t.splitLE(t.pool[i].l, key)
	t.pool[i].l = b
	t.pull(i)
	return a, i
}

// merge joins two subtrees with disjoint, ordered key ranges. Every
// reattachment counts toward the rebalance telemetry: it is the treap's
// analog of a rotation.
func (t *Tree) merge(a, b int32) int32 {
	if a == nilNode {
		return b
	}
	if b == nilNode {
		return a
	}
	if t.stats != nil {
		t.stats.TreeRebalances++
	}
	if t.pool[a].pri >= t.pool[b].pri {
		t.push(a)
		t.pool[a].r = t.merge(t.pool[a].r, b)
		t.pull(a)
		return a
	}
	t.push(b)
	t.pool[b].l = t.merge(a, t.pool[b].l)
	t.pull(b)
	return b
}

// leftmost returns the smallest-keyed node (the tree is never empty).
func (t *Tree) leftmost() int32 {
	i := t.root
	for t.pool[i].l != nilNode {
		t.push(i)
		i = t.pool[i].l
	}
	t.push(i)
	return i
}

// floor returns the node covering time at (largest key <= at), or nilNode
// when at precedes the first step. Lazy tags along the path are pushed,
// so the returned node's val is true. The walked depth feeds the
// telemetry depth high-water mark.
func (t *Tree) floor(at int64) int32 {
	i := t.root
	best := nilNode
	depth := int64(0)
	for i != nilNode {
		depth++
		t.push(i)
		if t.pool[i].key <= at {
			best = i
			i = t.pool[i].r
		} else {
			i = t.pool[i].l
		}
	}
	if t.stats != nil && depth > t.stats.TreeMaxDepth {
		t.stats.TreeMaxDepth = depth
	}
	return best
}

// succKey returns the smallest key > key, or Infinity when none exists
// (the final step extends to infinity). Steps keyed at Infinity itself do
// exist (permanent reservations), so a hit at Infinity is fine.
func (t *Tree) succKey(key int64) (int64, bool) {
	i := t.root
	succ, ok := int64(0), false
	for i != nilNode {
		t.push(i)
		if t.pool[i].key > key {
			succ, ok = t.pool[i].key, true
			i = t.pool[i].l
		} else {
			i = t.pool[i].r
		}
	}
	return succ, ok
}

// predNode returns the node with the largest key < key, or nilNode. Lazy
// tags along the path are pushed, so the returned node's val is true.
func (t *Tree) predNode(key int64) int32 {
	i := t.root
	best := nilNode
	for i != nilNode {
		t.push(i)
		if t.pool[i].key < key {
			best = i
			i = t.pool[i].r
		} else {
			i = t.pool[i].l
		}
	}
	return best
}

// firstBelowFrom returns the first node (in key order) with key >= from
// and val < w, pruning whole subtrees through the min aggregate.
func (t *Tree) firstBelowFrom(i int32, from int64, w int) int32 {
	if i == nilNode || t.pool[i].min >= w {
		return nilNode
	}
	t.push(i)
	n := &t.pool[i]
	if n.key >= from {
		if r := t.firstBelowFrom(n.l, from, w); r != nilNode {
			return r
		}
		if n.val < w {
			return i
		}
	}
	return t.firstBelowFrom(n.r, from, w)
}

// firstFitFrom returns the first node with key >= from and val >= w,
// pruning through the max aggregate.
func (t *Tree) firstFitFrom(i int32, from int64, w int) int32 {
	if i == nilNode || t.pool[i].max < w {
		return nilNode
	}
	t.push(i)
	n := &t.pool[i]
	if n.key >= from {
		if r := t.firstFitFrom(n.l, from, w); r != nilNode {
			return r
		}
		if n.val >= w {
			return i
		}
	}
	return t.firstFitFrom(n.r, from, w)
}

// minGE returns the minimum val over nodes with key >= lo.
func (t *Tree) minGE(i int32, lo int64) int {
	if i == nilNode {
		return int(^uint(0) >> 1)
	}
	t.push(i)
	n := &t.pool[i]
	if n.key < lo {
		return t.minGE(n.r, lo)
	}
	m := n.val
	if n.r != nilNode && t.pool[n.r].min < m {
		m = t.pool[n.r].min
	}
	if lm := t.minGE(n.l, lo); lm < m {
		m = lm
	}
	return m
}

// minLT returns the minimum val over nodes with key < hi.
func (t *Tree) minLT(i int32, hi int64) int {
	if i == nilNode {
		return int(^uint(0) >> 1)
	}
	t.push(i)
	n := &t.pool[i]
	if n.key >= hi {
		return t.minLT(n.l, hi)
	}
	m := n.val
	if n.l != nilNode && t.pool[n.l].min < m {
		m = t.pool[n.l].min
	}
	if rm := t.minLT(n.r, hi); rm < m {
		m = rm
	}
	return m
}

// minRange returns the minimum val over nodes with lo <= key < hi.
func (t *Tree) minRange(i int32, lo, hi int64) int {
	if i == nilNode {
		return int(^uint(0) >> 1)
	}
	t.push(i)
	n := &t.pool[i]
	if n.key < lo {
		return t.minRange(n.r, lo, hi)
	}
	if n.key >= hi {
		return t.minRange(n.l, lo, hi)
	}
	m := n.val
	if lm := t.minGE(n.l, lo); lm < m {
		m = lm
	}
	if rm := t.minLT(n.r, hi); rm < m {
		m = rm
	}
	return m
}

// FreeAt returns the number of free nodes at time t. Times before the
// first step report the first step's value.
func (t *Tree) FreeAt(at int64) int {
	if t.stats != nil {
		t.stats.FreeAt++
	}
	if t.small != nil {
		return t.small.FreeAt(at)
	}
	i := t.floor(at)
	if i == nilNode {
		i = t.leftmost()
	}
	return t.pool[i].val
}

// MinFree returns the minimum number of free nodes over [start, end).
// Panics on an empty interval.
func (t *Tree) MinFree(start, end int64) int {
	if end <= start {
		panic("profile: MinFree requires start < end")
	}
	if t.stats != nil {
		t.stats.MinFree++
	}
	if t.small != nil {
		return t.small.MinFree(start, end)
	}
	// The covering step of `start` (or the first step, when start precedes
	// the profile) participates unconditionally — even when `end` precedes
	// its key — exactly like the other kernels; later steps participate
	// while their key stays below `end`.
	cover := t.floor(start)
	if cover == nilNode {
		cover = t.leftmost()
	}
	m := t.pool[cover].val
	if r := t.minRange(t.root, t.pool[cover].key+1, end); r < m {
		m = r
	}
	return m
}

// splitAt ensures a step boundary exists exactly at time `at`. Times
// before the first step extend the profile backwards with the first
// step's value, exactly like the array kernel and the Reference.
func (t *Tree) splitAt(at int64) {
	cover := t.floor(at)
	var val int
	if cover == nilNode {
		val = t.pool[t.leftmost()].val
	} else {
		if t.pool[cover].key == at {
			return
		}
		val = t.pool[cover].val
	}
	a, b := t.splitLT(t.root, at)
	t.root = t.merge(t.merge(a, t.alloc(at, val)), b)
}

// deleteKey removes the node with the given key (which must exist).
func (t *Tree) deleteKey(key int64) {
	a, b := t.splitLT(t.root, key)
	m, c := t.splitLE(b, key)
	t.recycle(m)
	t.root = t.merge(a, c)
}

// coalesceAt removes the step at `key` if its value equals its
// predecessor's (the canonical-form maintenance of a range-update edge).
// Missing keys are ignored — a deferred pass replay may find the work
// already done.
func (t *Tree) coalesceAt(key int64) {
	i := t.floor(key)
	if i == nilNode || t.pool[i].key != key {
		return
	}
	val := t.pool[i].val
	p := t.predNode(key)
	if p == nilNode {
		return
	}
	if t.pool[p].val == val {
		t.deleteKey(key)
	}
}

// rangeEdges prepares a range update on [start, end): boundaries are
// inserted and the edge keys recorded for (possibly deferred)
// re-coalescing.
func (t *Tree) rangeEdges(start, end int64) {
	t.splitAt(start)
	t.splitAt(end)
}

// finishEdges re-coalesces the two edges of a range update, or defers
// them to CommitPass inside a batched pass.
func (t *Tree) finishEdges(start, end int64) {
	if t.inPass {
		t.dirty = append(t.dirty, start, end)
		return
	}
	t.coalesceAt(end)
	t.coalesceAt(start)
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
	if t.small != nil {
		t.small.Reserve(nodes, start, end)
		t.maybePromote()
		return
	}
	t.rangeEdges(start, end)
	a, b := t.splitLT(t.root, start)
	m, c := t.splitLT(b, end)
	if m != nilNode && t.pool[m].min < nodes {
		bad := t.firstBelowFrom(m, start, nodes)
		at, after := t.pool[bad].key, t.pool[bad].val-nodes
		t.root = t.merge(t.merge(a, m), c)
		panic(fmt.Sprintf("profile: overcommit at t=%d (%d free after reserving %d)",
			at, after, nodes))
	}
	t.applyDelta(m, -nodes)
	t.root = t.merge(t.merge(a, m), c)
	t.finishEdges(start, end)
}

// Release adds `nodes` free nodes on [start, end). Used when a running
// job completes earlier than estimated.
func (t *Tree) Release(nodes int, start, end int64) {
	if nodes <= 0 || end <= start {
		panic("profile: Release requires positive nodes and start < end")
	}
	if t.stats != nil {
		t.stats.Release++
	}
	if t.small != nil {
		t.small.Release(nodes, start, end)
		t.maybePromote()
		return
	}
	t.rangeEdges(start, end)
	a, b := t.splitLT(t.root, start)
	m, c := t.splitLT(b, end)
	if m != nilNode && t.pool[m].max+nodes > t.size {
		bad := t.firstFitFrom(m, start, t.size-nodes+1)
		at := t.pool[bad].key
		t.root = t.merge(t.merge(a, m), c)
		panic(fmt.Sprintf("profile: release beyond machine size at t=%d", at))
	}
	t.applyDelta(m, nodes)
	t.root = t.merge(t.merge(a, m), c)
	t.finishEdges(start, end)
}

// clampSub subtracts w from every step of subtree i, saturating at zero.
// Subtrees whose minimum stays non-negative degrade to one lazy add;
// everything else is walked, so the cost is O(k + log S) for k clamped
// steps.
func (t *Tree) clampSub(i int32, w int) {
	if i == nilNode {
		return
	}
	if t.pool[i].min >= w {
		t.applyDelta(i, -w)
		return
	}
	t.push(i)
	n := &t.pool[i]
	t.clampSub(n.l, w)
	t.clampSub(n.r, w)
	n.val -= w
	if n.val < 0 {
		n.val = 0
	}
	t.pull(i)
}

// ReserveClamped subtracts up to `nodes` free nodes on [start, end),
// clamping each step at zero instead of panicking on overcommit (the
// announced-maintenance drain operation; see array.ReserveClamped).
func (t *Tree) ReserveClamped(nodes int, start, end int64) {
	if nodes <= 0 || end <= start {
		panic("profile: ReserveClamped requires positive nodes and start < end")
	}
	if t.stats != nil {
		t.stats.ReserveClamped++
	}
	if t.small != nil {
		t.small.ReserveClamped(nodes, start, end)
		t.maybePromote()
		return
	}
	t.rangeEdges(start, end)
	a, b := t.splitLT(t.root, start)
	m, c := t.splitLT(b, end)
	t.clampSub(m, nodes)
	t.root = t.merge(t.merge(a, m), c)
	// Clamping can equalize interior neighbors (runs pinned to zero), so
	// the touched range is re-canonicalized wholesale: every step in
	// [start, end] plus the successor of `end` is checked against its
	// predecessor, matching the array kernel's backward sweep. Coalescing
	// stays eager even inside a pass — clamping applies non-uniform
	// deltas, so the deferred-edge bookkeeping of Reserve (which relies on
	// equal deltas everywhere but the two edges) does not cover drains.
	t.coalesceRange(start, end)
}

// coalesceRange removes every step in [start, end] (end inclusive — it is
// the range update's end boundary) plus end's successor whose value
// equals its predecessor's.
func (t *Tree) coalesceRange(start, end int64) {
	// Collect the candidate keys first: deleting while walking the tree
	// would invalidate the traversal.
	keys := t.collectKeys(t.root, start, end, nil)
	if s, ok := t.succKey(end); ok {
		keys = append(keys, s)
	}
	for _, k := range keys {
		t.coalesceAt(k)
	}
}

// collectKeys appends the keys in [lo, hi] (inclusive) in ascending order.
func (t *Tree) collectKeys(i int32, lo, hi int64, out []int64) []int64 {
	if i == nilNode {
		return out
	}
	t.push(i)
	n := &t.pool[i]
	if n.key > lo {
		out = t.collectKeys(n.l, lo, hi, out)
	}
	if n.key >= lo && n.key <= hi {
		out = append(out, n.key)
	}
	if n.key < hi {
		out = t.collectKeys(n.r, lo, hi, out)
	}
	return out
}

// efState is the scan state of EarliestFit's single pruned in-order walk.
type efState struct {
	w          int
	duration   int64
	anchor     int64 // keys below this never participate
	start, end int64 // current candidate window [start, end)
	seeking    bool  // true: hunting the next step with w nodes free
	done       bool  // true: start holds the answer
}

// efWalk visits the steps at/after s.anchor in key order, alternating two
// modes. Scanning (seeking=false): a step short of w nodes either proves
// the candidate window [start, end) feasible (key >= end) or invalidates
// it; seeking (seeking=true): the first step with w nodes free opens the
// next candidate window. Whole subtrees that cannot affect the current
// mode are skipped through the min/max aggregates, and lazy tags are
// carried down in `acc` instead of being pushed — the walk never writes,
// and each node is visited at most once, unlike a per-blocking-run
// restart from the root.
func (t *Tree) efWalk(i int32, acc int, s *efState) {
	if i == nilNode || s.done {
		return
	}
	n := &t.pool[i]
	if s.seeking {
		if n.max+acc < s.w {
			return // no step here frees enough nodes
		}
	} else if n.min+acc >= s.w {
		return // every step here admits the job: the window scans through
	}
	acc += n.add
	if n.key >= s.anchor {
		t.efWalk(n.l, acc, s)
		if s.done {
			return
		}
		v := n.val + acc - n.add // val is true modulo ancestors' tags only
		if s.seeking {
			if v >= s.w {
				s.seeking = false
				s.start = n.key
				s.end = satEnd(s.start, s.duration)
			}
		} else if v < s.w {
			if n.key >= s.end {
				s.done = true
				return
			}
			s.seeking = true
		}
	}
	t.efWalk(n.r, acc, s)
}

// EarliestFit returns the earliest time >= notBefore at which `nodes`
// nodes are simultaneously free for `duration` seconds (Infinity if no
// finite start admits the job). One pruned in-order walk (efWalk) over
// the steps at/after the covering step of notBefore: subtrees wholly
// feasible (min aggregate) or wholly infeasible (max aggregate) for the
// walk's current mode are skipped in O(1), so a query costs O(log S)
// plus the alternation frontier actually examined — never more than one
// visit per step, with no per-blocking-run restart.
func (t *Tree) EarliestFit(nodes int, duration int64, notBefore int64) int64 {
	if nodes > t.size {
		panic(fmt.Sprintf("profile: job wants %d nodes on a %d-node machine", nodes, t.size))
	}
	if duration <= 0 {
		panic("profile: EarliestFit requires positive duration")
	}
	if t.stats != nil {
		t.stats.EarliestFit++
	}
	if t.small != nil {
		return t.small.EarliestFit(nodes, duration, notBefore)
	}
	start := notBefore
	cover := t.floor(start)
	if cover == nilNode {
		// notBefore precedes the profile: the search begins at the profile
		// start, like the other kernels.
		cover = t.leftmost()
		start = t.pool[cover].key
	}
	s := efState{w: nodes, duration: duration, anchor: t.pool[cover].key, start: start}
	s.end = satEnd(start, duration)
	t.efWalk(t.root, 0, &s)
	if s.done || !s.seeking {
		// The walk ran out of steps while scanning: the final step extends
		// to infinity, so the open window completes.
		return s.start
	}
	// The profile is permanently short of `nodes` from the last blocking
	// step on: no finite start exists.
	return Infinity
}

// BeginPass opens a batched scheduling pass anchored at `now`:
// reservation edge coalescing is deferred until CommitPass, relaxing the
// canonical form mid-pass (query results are unaffected — equal-valued
// neighbors describe the same step function).
func (t *Tree) BeginPass(now int64) {
	t.inPass = true
	t.passNow = now
	t.dirty = t.dirty[:0]
	if t.stats != nil {
		t.stats.Passes++
	}
}

// StartMany places each request at its earliest fit from the pass time
// and reserves it, appending the start times to `starts`. Identical in
// effect to the sequential EarliestFit+Reserve loop (the batch tests pin
// exactly that), and counted as that loop: one EarliestFit per request,
// one Reserve per placed one. In array mode each request is one scan
// (array.startOne); a request that promotes the profile hands the rest
// to the treap's loop.
func (t *Tree) StartMany(reqs []StartReq, starts []int64) []int64 {
	if t.stats != nil {
		t.stats.BatchedStarts = job.AddSat(t.stats.BatchedStarts, int64(len(reqs)))
	}
	for i, r := range reqs {
		if t.small == nil {
			return startManySequential(t, reqs[i:], t.passNow, starts)
		}
		at := t.small.startOne(r.Nodes, r.Duration, t.passNow)
		starts = append(starts, at)
		if t.stats != nil {
			t.stats.EarliestFit++
			if at != Infinity {
				t.stats.Reserve++
			}
		}
		t.maybePromote()
	}
	return starts
}

// CommitPass closes the pass and replays the deferred edge coalescing,
// restoring the canonical form.
func (t *Tree) CommitPass() {
	if !t.inPass {
		return
	}
	t.inPass = false
	for i := len(t.dirty) - 1; i >= 0; i-- {
		t.coalesceAt(t.dirty[i])
	}
	t.dirty = t.dirty[:0]
}

// StepCount returns the number of steps (diagnostics, complexity tests).
// Inside an open pass the count may exceed the canonical form's.
func (t *Tree) StepCount() int {
	if t.small != nil {
		return t.small.StepCount()
	}
	return int(t.pool[t.root].count)
}

// Height returns the current root-to-leaf height (balance diagnostics;
// the fuzz invariants bound it logarithmically in StepCount). Array mode
// has no tree: height 0.
func (t *Tree) Height() int {
	if t.small != nil {
		return 0
	}
	var h func(i int32) int
	h = func(i int32) int {
		if i == nilNode {
			return 0
		}
		l, r := h(t.pool[i].l), h(t.pool[i].r)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return h(t.root)
}

// String renders the profile compactly for debugging, in the shared
// canonical format of all three kernels.
func (t *Tree) String() string {
	if t.small != nil {
		return t.small.String()
	}
	var b strings.Builder
	b.WriteString("profile[")
	first := true
	var walk func(i int32)
	walk = func(i int32) {
		if i == nilNode {
			return
		}
		t.push(i)
		walk(t.pool[i].l)
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d:%d", t.pool[i].key, t.pool[i].val)
		walk(t.pool[i].r)
	}
	walk(t.root)
	b.WriteByte(']')
	return b.String()
}
