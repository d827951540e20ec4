package queue

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"jobsched/internal/job"
)

// naive is the brute-force oracle: the same visible order as a slice,
// and which of the jobs the last rebuild placed.
type naive struct {
	jobs    []*job.Job
	hidden  map[job.ID]bool
	rebuilt map[job.ID]bool
	// changes models Index.Changes: every successful remove, rebuild and
	// hide, and every unhideAll that restores a job, moves it; nothing
	// else does.
	changes uint64
}

func newNaive() *naive { return &naive{hidden: map[job.ID]bool{}, rebuilt: map[job.ID]bool{}} }

func (n *naive) push(j *job.Job) { n.jobs = append(n.jobs, j) }

// remove deletes j and reports, like Index.Remove, whether it was there
// and whether the last rebuild (rather than a push since) had placed it.
func (n *naive) remove(j *job.Job) (ok, rebuilt bool) {
	for i, q := range n.jobs {
		if q == j {
			n.jobs = append(n.jobs[:i], n.jobs[i+1:]...)
			n.changes++
			delete(n.hidden, j.ID)
			rebuilt = n.rebuilt[j.ID]
			delete(n.rebuilt, j.ID)
			return true, rebuilt
		}
	}
	return false, false
}

// hide and unhideAll model Hide and UnhideAll.
func (n *naive) hide(j *job.Job) {
	n.hidden[j.ID] = true
	n.changes++
}

func (n *naive) unhideAll() {
	if len(n.hidden) > 0 {
		n.changes++
	}
	n.hidden = map[job.ID]bool{}
}

func (n *naive) visible() []*job.Job {
	var out []*job.Job
	for _, j := range n.jobs {
		if !n.hidden[j.ID] {
			out = append(out, j)
		}
	}
	return out
}

func (n *naive) rebuild(order []*job.Job) {
	n.changes++
	n.jobs = append(n.jobs[:0:0], order...)
	n.hidden = map[job.ID]bool{}
	n.rebuilt = map[job.ID]bool{}
	for _, j := range order {
		n.rebuilt[j.ID] = true
	}
}

// checkAgainstNaive compares every query surface of ix with the oracle.
func checkAgainstNaive(t *testing.T, ix *Index, n *naive, maxNodes int) {
	t.Helper()
	vis := n.visible()
	if ix.Len() != len(vis) {
		t.Fatalf("Len = %d, oracle %d", ix.Len(), len(vis))
	}
	if ix.Changes() != n.changes {
		t.Fatalf("Changes = %d, oracle %d", ix.Changes(), n.changes)
	}

	// Cursor iteration order.
	it := ix.Iter()
	for i, want := range vis {
		got := it.Next()
		if got != want {
			t.Fatalf("cursor step %d: got %v, want job %d", i, got, want.ID)
		}
		if r := ix.Rank(it.Slot()); r != i {
			t.Fatalf("Rank(slot of step %d) = %d", i, r)
		}
	}
	if got := it.Next(); got != nil {
		t.Fatalf("cursor past end: got job %d", got.ID)
	}

	// Width-pruned iteration.
	it = ix.Iter()
	for _, want := range vis {
		if want.Nodes > maxNodes {
			continue
		}
		got := it.NextFit(maxNodes)
		if got != want {
			t.Fatalf("NextFit(%d): got %v, want job %d", maxNodes, got, want.ID)
		}
	}
	if got := it.NextFit(maxNodes); got != nil {
		t.Fatalf("NextFit past end: got job %d", got.ID)
	}

	// Order statistics.
	for k, want := range vis {
		got, slot := ix.Select(k)
		if got != want || slot < 0 {
			t.Fatalf("Select(%d): got %v, want job %d", k, got, want.ID)
		}
	}
	if j, s := ix.Select(len(vis)); j != nil || s != -1 {
		t.Fatalf("Select(len) = %v, %d", j, s)
	}

	// Aggregates.
	wantMin := widthInf
	for _, j := range vis {
		if j.Nodes < wantMin {
			wantMin = j.Nodes
		}
	}
	if got := ix.MinNodes(); got != wantMin {
		t.Fatalf("MinNodes = %d, want %d", got, wantMin)
	}

	// Materialized order.
	adapted := ix.AppendOrdered(nil)
	if len(adapted) != len(vis) {
		t.Fatalf("AppendOrdered len = %d, want %d", len(adapted), len(vis))
	}
	for i := range vis {
		if adapted[i] != vis[i] {
			t.Fatalf("AppendOrdered[%d] = job %d, want %d", i, adapted[i].ID, vis[i].ID)
		}
	}
}

// probeAgainstNaive asks the index one question, a different one each
// step, before checkAgainstNaive asks them all: every query must be
// right when it is the first thing to follow a mutation, not only after
// some other query has already brought the tree up to date.
func probeAgainstNaive(t *testing.T, ix *Index, n *naive, step, maxNodes int) {
	t.Helper()
	vis := n.visible()
	if len(vis) == 0 {
		return
	}
	last := vis[len(vis)-1]
	switch step % 5 {
	case 0:
		maxNodes = last.Nodes // the newest job fits, whatever else does
		var want *job.Job
		for _, j := range vis {
			if j.Nodes <= maxNodes {
				want = j
				break
			}
		}
		it := ix.Iter()
		if got := it.NextFit(maxNodes); got != want {
			t.Fatalf("first query NextFit(%d) = %v, want %v", maxNodes, got, want)
		}
	case 1:
		it := ix.Iter()
		if got := it.Next(); got != vis[0] {
			t.Fatalf("first query Next = %v, want job %d", got, vis[0].ID)
		}
	case 2:
		want := widthInf
		for _, j := range vis {
			want = min(want, j.Nodes)
		}
		if got := ix.MinNodes(); got != want {
			t.Fatalf("first query MinNodes = %d, want %d", got, want)
		}
	case 3:
		if got, _ := ix.Select(len(vis) - 1); got != last {
			t.Fatalf("first query Select(last) = %v, want job %d", got, last.ID)
		}
	case 4:
		if got := ix.Rank(ix.slotOf(last)); got != len(vis)-1 {
			t.Fatalf("first query Rank(last) = %d, want %d", got, len(vis)-1)
		}
	}
}

// smallLimits are the small-mode budgets the differential tests run
// under: the tree from the first push, the promotion boundary hammered,
// and the production default.
var smallLimits = []int{0, 4, indexSmallLimit}

// checkMode pins the one-way promotion, called after every operation: an
// index is in small mode exactly until its slot array first outgrows the
// budget.
func checkMode(t *testing.T, ix *Index, promoted *bool) {
	t.Helper()
	want := *promoted || len(ix.slots) > ix.smallLimit
	if tree := !ix.small(); tree != want {
		t.Fatalf("tree mode = %v, want %v (%d slots, budget %d)", tree, want, len(ix.slots), ix.smallLimit)
	}
	*promoted = want
}

// TestIndexDifferential drives random Push/Remove/Hide/Rebuild
// interleavings against the brute-force oracle, under every small-mode
// budget of smallLimits.
func TestIndexDifferential(t *testing.T) {
	defer func(old int) { indexSmallLimit = old }(indexSmallLimit)
	for _, limit := range smallLimits {
		indexSmallLimit = limit
		t.Run(fmt.Sprintf("limit=%d", limit), testIndexDifferential)
	}
}

func testIndexDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ix := NewIndex()
	var stats Stats
	ix.SetStats(&stats)
	promoted := false
	n := newNaive()
	nextID := job.ID(0)
	var queued []*job.Job

	newJob := func() *job.Job {
		nextID++
		return &job.Job{ID: nextID, Nodes: 1 + rng.Intn(256), Estimate: 1 + int64(rng.Intn(5000))}
	}

	for step := 0; step < 6000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(queued) == 0: // push
			j := newJob()
			queued = append(queued, j)
			ix.Push(j)
			n.push(j)
		case op < 8: // remove a random queued job (unhide first, engine-style)
			ix.UnhideAll()
			n.unhideAll()
			i := rng.Intn(len(queued))
			j := queued[i]
			queued = append(queued[:i], queued[i+1:]...)
			ok, rebuilt := ix.Remove(j)
			if wantOK, wantRebuilt := n.remove(j); ok != wantOK || rebuilt != wantRebuilt {
				t.Fatalf("Remove(job %d) = %v, %v; oracle %v, %v", j.ID, ok, rebuilt, wantOK, wantRebuilt)
			}
		case op < 9: // hide a random visible job
			if vis := n.visible(); len(vis) > 0 {
				j := vis[rng.Intn(len(vis))]
				if !ix.Hide(j) {
					t.Fatalf("Hide(job %d) = false", j.ID)
				}
				n.hide(j)
			}
		default: // rebuild in a random permutation (a replan epoch)
			ix.UnhideAll()
			n.unhideAll()
			perm := append(queued[:0:0], queued...)
			rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
			cut := rng.Intn(len(perm) + 1)
			ix.Rebuild(perm[:cut], perm[cut:])
			n.rebuild(perm)
		}
		checkMode(t, ix, &promoted)
		if step%37 == 0 || step > 5950 {
			checkAgainstNaive(t, ix, n, 1+rng.Intn(300))
		}
	}
	if !promoted {
		t.Fatalf("the queue never outgrew the small-mode budget %d", ix.smallLimit)
	}
	ix.UnhideAll()
	n.unhideAll()
	checkAgainstNaive(t, ix, n, 128)
	if stats.Pushes == 0 || stats.Removes == 0 || stats.Rebuilds == 0 || stats.Total() <= 0 {
		t.Fatalf("stats not counting: %s", stats.String())
	}
}

// TestIndexHideRestores pins that a hide/unhide cycle restores the exact
// pre-pass state, including aggregate queries.
func TestIndexHideRestores(t *testing.T) {
	ix := NewIndex()
	jobs := make([]*job.Job, 0, 100)
	for i := 1; i <= 100; i++ {
		j := &job.Job{ID: job.ID(i), Nodes: i, Estimate: int64(1000 - i)}
		jobs = append(jobs, j)
		ix.Push(j)
	}
	before := ix.AppendOrdered(nil)
	for _, j := range jobs[:40] {
		if !ix.Hide(j) {
			t.Fatalf("Hide(job %d) failed", j.ID)
		}
	}
	if ix.Len() != 60 {
		t.Fatalf("Len after hides = %d", ix.Len())
	}
	if got, _ := ix.First(); got != jobs[40] {
		t.Fatalf("First after hides = %v", got)
	}
	if ix.MinNodes() != 41 {
		t.Fatalf("MinNodes after hides = %d", ix.MinNodes())
	}
	ix.UnhideAll()
	after := ix.AppendOrdered(nil)
	if len(after) != len(before) {
		t.Fatalf("unhide lost jobs: %d != %d", len(after), len(before))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("unhide reordered at %d", i)
		}
	}
	if ix.MinNodes() != 1 {
		t.Fatalf("MinNodes after unhide = %d", ix.MinNodes())
	}
}

// TestIndexZeroAlloc pins zero steady-state allocations for cursor
// iteration and the width/order-statistic queries — the per-pass hot path
// — on a deep queue (the tree) and on a shallow one (small mode), and for
// the whole pass cycle on both: Push, Hide, UnhideAll, Remove.
func TestIndexZeroAlloc(t *testing.T) {
	fill := func(n int) *Index {
		ix := NewIndex()
		for i := 1; i <= n; i++ {
			nodes := 200 + i%56
			if i%97 == 0 || (n < 97 && i%9 == 0) {
				nodes = 1 + i%8
			}
			ix.Push(&job.Job{ID: job.ID(i), Nodes: nodes, Estimate: int64(i)})
		}
		return ix
	}
	var sink int64
	for _, q := range []struct {
		mode string
		ix   *Index
	}{{"tree", fill(4096)}, {"small", fill(40)}} {
		if small := q.ix.small(); small != (q.mode == "small") {
			t.Fatalf("%s: small mode = %v", q.mode, small)
		}
		ix := q.ix
		gates := []struct {
			name string
			fn   func()
		}{
			{"cursor", func() {
				it := ix.Iter()
				for k := 0; k < 64; k++ {
					j := it.Next()
					if j == nil {
						break
					}
					sink += int64(j.Nodes)
				}
			}},
			{"cursor-fit", func() {
				it := ix.Iter()
				for j := it.NextFit(8); j != nil; j = it.NextFit(8) {
					sink += int64(j.Nodes)
				}
			}},
			{"width-queries", func() {
				sink += int64(ix.MinNodes())
				_, s := ix.Select(17)
				sink += int64(ix.Rank(s))
			}},
		}
		for _, g := range gates {
			if allocs := testing.AllocsPerRun(100, g.fn); allocs != 0 {
				t.Errorf("%s %s: %v allocs per run, want 0", q.mode, g.name, allocs)
			}
		}
	}

	// The pass cycle: 40 waiting jobs; each cycle pushes an arrival,
	// hides the head as a pass picks it, restores it and starts it. The
	// ring of 64 jobs never pushes an ID that is still waiting.
	ix := fill(40)
	ring := make([]*job.Job, 64)
	for i := range ring {
		ring[i] = &job.Job{ID: job.ID(1000 + i), Nodes: 1 + i%16, Estimate: int64(i)}
	}
	k := 0
	cycle := func() {
		ix.Push(ring[k%len(ring)])
		k++
		head, _ := ix.First()
		ix.Hide(head)
		ix.UnhideAll()
		ix.Remove(head)
	}
	for range 200 { // past the slot array's growth and its first compactions
		cycle()
	}
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Errorf("small pass cycle: %v allocs per run, want 0", allocs)
	}
	if !ix.small() || ix.Len() != 40 {
		t.Fatalf("pass cycle left small mode = %v, Len = %d", ix.small(), ix.Len())
	}

	// The deep pass cycle: 4,096 waiting jobs; each cycle pushes two
	// arrivals with advancing IDs, hides the head as a pass picks it,
	// restores it and starts it along with a backfilled job from the
	// middle. The jobs come from a ring that is long enough never to push
	// an ID that is still waiting, so the ID table keeps taking pages for
	// new IDs, and only recycled ones will do.
	deep := fill(4096)
	deepRing := make([]*job.Job, 1<<14)
	for i := range deepRing {
		deepRing[i] = &job.Job{ID: job.ID(5000 + i), Nodes: 1 + i%200, Estimate: int64(i)}
	}
	k = 0
	deepCycle := func() {
		for range 2 {
			deep.Push(deepRing[k%len(deepRing)])
			k++
		}
		head, _ := deep.First()
		deep.Hide(head)
		deep.UnhideAll()
		deep.Remove(head)
		mid, _ := deep.Select(deep.Len() / 2)
		deep.Remove(mid)
	}
	for range 3 * len(deepRing) { // past the slot array's growth, compactions and page turnover
		deepCycle()
	}
	if allocs := testing.AllocsPerRun(2000, deepCycle); allocs != 0 {
		t.Errorf("deep pass cycle: %v allocs per run, want 0", allocs)
	}
	if deep.small() || deep.Len() != 4096 {
		t.Fatalf("deep pass cycle: small mode = %v, Len = %d", deep.small(), deep.Len())
	}
	// The waiting IDs span less than twice the depth, and emptied pages
	// are reused, so the table never held more pages than that span needs.
	if n := len(deep.pos.pages); n > 2*4096>>idPageBits+1 {
		t.Errorf("deep pass cycle: %d ID-table pages for 4,096 waiting jobs", n)
	}
	_ = sink
}

// TestIndexRefusesStrangers pins, in both modes, that the index is keyed
// by job and by ID: a second job with a waiting job's ID is not pushed,
// and a job that only carries a waiting job's ID is neither removed nor
// hidden — and none of the refusals changes anything.
func TestIndexRefusesStrangers(t *testing.T) {
	defer func(old int) { indexSmallLimit = old }(indexSmallLimit)
	for _, limit := range []int{0, indexSmallLimit} {
		indexSmallLimit = limit
		ix := NewIndex()
		var stats Stats
		ix.SetStats(&stats)
		for i := 1; i <= 10; i++ {
			ix.Push(&job.Job{ID: job.ID(i), Nodes: i, Estimate: 1})
		}
		if small := ix.small(); small != (limit > 0) {
			t.Fatalf("limit %d: small mode = %v", limit, small)
		}
		head, _ := ix.First()
		ix.Hide(head) // a hidden job's ID is still waiting
		before, changes := stats, ix.Changes()
		for _, id := range []job.ID{1, 5, 10} {
			stranger := &job.Job{ID: id, Nodes: 1, Estimate: 1}
			if ix.Push(stranger) {
				t.Fatalf("limit %d: Push accepted a second job with waiting ID %d", limit, id)
			}
			if ok, _ := ix.Remove(stranger); ok {
				t.Fatalf("limit %d: Remove took a stranger carrying waiting ID %d", limit, id)
			}
			if ix.Hide(stranger) {
				t.Fatalf("limit %d: Hide took a stranger carrying waiting ID %d", limit, id)
			}
		}
		if stats != before || ix.Changes() != changes || ix.Len() != 9 {
			t.Fatalf("limit %d: refusals changed the index: %v -> %v, Len %d", limit, &before, &stats, ix.Len())
		}
		ix.UnhideAll()
		if got := ix.AppendOrdered(nil); len(got) != 10 || got[0] != head {
			t.Fatalf("limit %d: order after refusals starts %v, %d jobs", limit, got[0], len(got))
		}
	}
}

// FuzzIndexOps interprets the input as an ID spacing (see idSpacings)
// and a sequence of index operations —
// Push (singly and in bursts, fresh and duplicate IDs), Remove (head,
// middle, absent), Hide, UnhideAll, Rebuild (of the queued jobs, and of
// the queued jobs plus fresh ones, as a restored plan does) — and
// compares every query surface, and the change counter, with the naive
// oracle after each one: pushes, refused pushes and removes, and
// compaction leave the counter alone; every other successful mutation
// moves it. Each input runs once under every small-mode budget of
// smallLimits, and the runs must end with the same slot layout and the
// same operation counts, Grows (tree allocations) apart. Every seed runs
// under every ID spacing.
//
// The seeds make the slot array outgrow its first capacity, drain far
// enough to compact (with and without a rebuilt prefix in front of the
// pushed tail), and query right after a burst of pushes, which is when
// the deferred ancestor repair has the most to catch up on. Others cross
// the small-mode budget in the middle of a burst, by Rebuilds below and
// above it, and with slots hidden, and compact in small mode.
func FuzzIndexOps(f *testing.F) {
	rep := func(n int, op ...byte) []byte { return bytes.Repeat(op, n) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	var seeds [][]byte
	add := func(data []byte) { seeds = append(seeds, data) }
	add([]byte{opPush, 3, opPush, 4, opHide, 0, opPushDuplicate, 0, opRemoveHead, opUnhideAll, opRemoveAbsent})
	// Growth past the first capacity, then a drain from the middle that compacts.
	add(append(rep(3, opBurst, 40, 5), rep(100, opRemoveMiddle, 7)...))
	// A deep queue drained from the head, then a burst and a hide on what is left.
	add(append(append(rep(5, opBurst, 63, 1), rep(250, opRemoveHead)...), opBurst, 9, 2, opHide, 2))
	// A rebuilt prefix with a pushed tail behind it, drained from both parts until it compacts.
	add(append(append(append(rep(2, opBurst, 50, 3), opRebuild, 5), rep(2, opBurst, 30, 4)...),
		rep(60, opRemoveMiddle, 11, opRemoveMiddle, 200)...))
	// Bursts of six behind a queue that six head removals have just
	// emptied: seven operations a cycle, so that each of the six
	// first-query probes gets its turn right after a burst, over a tree
	// whose synced ancestors all still say "nobody here".
	add(rep(18, opBurst, 5, 40, opRemoveHead, opRemoveHead, opRemoveHead, opRemoveHead, opRemoveHead, opRemoveHead))
	// Hides between pushes and bursts, restored by the removals that follow.
	add(append(rep(20, opPush, 9, opHide, 1, opBurst, 5, 2), rep(30, opUnhideAll, opRemoveMiddle, 3)...))
	// Promotion in the middle of a burst: 233 slots, then 64 more (the
	// budget of 4 goes in the first burst).
	add(cat(rep(3, opBurst, 63, 5), []byte{opBurst, 40, 5, opBurst, 63, 7, opRemoveMiddle, 90}))
	// Rebuilds while small: 3 jobs (below every budget but 0), 65 (above
	// 4), then past the default budget by restored plans of 64 more each.
	add(cat([]byte{opPush, 1, opPush, 2, opRebuildGrow, 0, 3, opRebuildGrow, 61, 4},
		rep(4, opRebuildGrow, 63, 9), []byte{opRemoveHead, opRemoveMiddle, 100}))
	// Compaction in small mode, with a rebuilt prefix: 128 slots drained
	// from the middle past 64 tombstones, then refilled.
	add(cat(rep(2, opBurst, 63, 3), []byte{opRebuild, 2}, rep(80, opRemoveMiddle, 128),
		rep(2, opBurst, 30, 8), rep(5, opRemoveHead)))
	// Hides, then the pushes that promote while they are held.
	add(cat([]byte{opPush, 1, opPush, 2, opPush, 3, opHide, 0, opHide, 200, opBurst, 5, 6},
		rep(3, opBurst, 63, 1), rep(10, opHide, 37), rep(2, opBurst, 63, 2), []byte{opRemoveMiddle, 50, opUnhideAll}))

	for _, data := range seeds {
		for spacing := range idSpacings {
			f.Add(uint8(spacing), data)
		}
	}

	f.Fuzz(func(t *testing.T, spacing uint8, data []byte) {
		defer func(old int) { indexSmallLimit = old }(indexSmallLimit)
		id := idSpacings[int(spacing)%len(idSpacings)]
		var first fuzzOutcome
		for i, limit := range smallLimits {
			indexSmallLimit = limit
			got := runIndexOps(t, id, data)
			if i == 0 {
				first = got
				continue
			}
			if !slices.Equal(got.layout, first.layout) {
				t.Fatalf("budget %d: slot layout %v, budget %d: %v", limit, got.layout, smallLimits[0], first.layout)
			}
			if got.stats != first.stats {
				t.Fatalf("budget %d: counts %+v, budget %d: %+v", limit, got.stats, smallLimits[0], first.stats)
			}
		}
	})
}

// idSpacings are the ID sequences FuzzIndexOps draws its fresh jobs
// from: the k-th fresh job (k = 1, 2, …) gets ID id(k). Workloads number
// their jobs densely, but SWF job numbers pass through as they are, so the
// index must not care: each sequence is injective, and none yields 0 (the
// tombstone of fuzzOutcome.layout).
var idSpacings = []func(k int64) job.ID{
	// Dense and ascending, 32 to a page of the ID table.
	func(k int64) job.ID { return job.ID(k) },
	// Gaps: every ID on a page of its own.
	func(k int64) job.ID { return job.ID(k * 41) },
	// Runs of five with jumps between them: some pages shared, some not.
	func(k int64) job.ID { return job.ID(k + k/5*97) },
	// Alternating around 0 (-1, 1, -2, 2, …): negative IDs, and pushes that
	// straddle the boundary between the pages of -32…-1 and 0…31.
	func(k int64) job.ID {
		if k%2 == 1 {
			return job.ID(-(k + 1) / 2)
		}
		return job.ID(k / 2)
	},
	// Alternating between the two ends of the int64 range.
	func(k int64) job.ID {
		if k%2 == 1 {
			return job.ID(math.MinInt64 + k/2)
		}
		return job.ID(math.MaxInt64 - k/2)
	},
	// Descending, from below a page boundary down across many.
	func(k int64) job.ID { return job.ID(1<<40 - 17 - k) },
}

// The operations of FuzzIndexOps: the first byte of each is the opcode
// (mod numOps), and the bytes after it are its arguments.
const (
	opPush = iota
	opBurst
	opRemoveHead
	opRemoveMiddle
	opRemoveAbsent
	opHide
	opUnhideAll
	opRebuild
	opPushDuplicate
	opRebuildGrow
	numOps
)

// fuzzOutcome is what must not depend on the small-mode budget: the
// final slot layout (job IDs, 0 for a tombstone) and the operation
// counts, with Grows zeroed.
type fuzzOutcome struct {
	layout []job.ID
	stats  Stats
}

// runIndexOps runs one FuzzIndexOps input on a fresh index under the
// current budget, with fresh IDs from id, checking it against the oracle
// after every operation.
func runIndexOps(t *testing.T, id func(k int64) job.ID, data []byte) fuzzOutcome {
	t.Helper()
	ix := NewIndex()
	var stats Stats
	ix.SetStats(&stats)
	n := newNaive()
	fresh, steps, promoted := int64(0), 0, false
	arg := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	newJob := func(seed int) *job.Job {
		fresh++
		return &job.Job{ID: id(fresh), Nodes: 1 + seed%256, Estimate: 1 + int64(seed*101%5000)}
	}
	push := func(seed int) {
		j := newJob(seed)
		if !ix.Push(j) {
			t.Fatalf("Push(job %d) refused a fresh ID", j.ID)
		}
		n.push(j)
	}
	remove := func(j *job.Job) {
		// Engine-style: the pass restores what it hid before a start.
		ix.UnhideAll()
		n.unhideAll()
		ok, rebuilt := ix.Remove(j)
		if wantOK, wantRebuilt := n.remove(j); ok != wantOK || rebuilt != wantRebuilt {
			t.Fatalf("Remove(job %d) = %v, %v; oracle %v, %v", j.ID, ok, rebuilt, wantOK, wantRebuilt)
		}
	}
	// permuted returns some deterministic permutation of what is queued.
	permuted := func(k int) []*job.Job {
		perm := append(n.jobs[:0:0], n.jobs...)
		if len(perm) > 1 {
			for i := range perm {
				o := (i*(2*k+1) + k) % len(perm)
				perm[i], perm[o] = perm[o], perm[i]
			}
		}
		return perm
	}
	for len(data) > 0 {
		switch op := arg() % numOps; op {
		case opPush:
			push(arg())
		case opBurst:
			for k, seed := 1+arg()%64, arg(); k > 0; k-- {
				push(seed + k)
			}
		case opRemoveHead:
			if len(n.jobs) > 0 {
				remove(n.jobs[0])
			}
		case opRemoveMiddle:
			if len(n.jobs) > 0 {
				remove(n.jobs[arg()*len(n.jobs)/256])
			}
		case opRemoveAbsent:
			remove(&job.Job{ID: id(fresh + 1), Nodes: 1, Estimate: 1})
			if len(n.jobs) > 0 { // a stranger carrying a queued job's ID
				remove(&job.Job{ID: n.jobs[0].ID, Nodes: 1, Estimate: 1})
			}
		case opHide:
			if vis := n.visible(); len(vis) > 0 {
				j := vis[arg()*len(vis)/256]
				if !ix.Hide(j) {
					t.Fatalf("Hide(job %d) = false", j.ID)
				}
				n.hide(j)
				if ix.Hide(j) { // hidden already: refused, no change
					t.Fatalf("Hide(job %d) accepted a hidden job", j.ID)
				}
			}
		case opUnhideAll:
			ix.UnhideAll()
			n.unhideAll()
		case opRebuild:
			perm := permuted(arg())
			ix.Rebuild(perm)
			n.rebuild(perm)
		case opRebuildGrow:
			// A restored plan: the queued jobs and 1–64 fresh ones.
			k, perm := 1+arg()%64, permuted(arg())
			for ; k > 0; k-- {
				perm = append(perm, newJob(k))
			}
			ix.Rebuild(perm)
			n.rebuild(perm)
		case opPushDuplicate:
			if len(n.jobs) > 0 {
				dup := *n.jobs[arg()*len(n.jobs)/256]
				if ix.Push(&dup) {
					t.Fatalf("Push accepted a second job with queued ID %d", dup.ID)
				}
			}
		}
		steps++
		checkMode(t, ix, &promoted)
		probeAgainstNaive(t, ix, n, steps, 1+steps*53%300)
		checkAgainstNaive(t, ix, n, 1+steps*53%300)
	}
	out := fuzzOutcome{stats: stats}
	out.stats.Grows = 0
	for _, j := range ix.slots {
		if j == nil {
			out.layout = append(out.layout, 0)
		} else {
			out.layout = append(out.layout, j.ID)
		}
	}
	return out
}
