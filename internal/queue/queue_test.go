package queue

import (
	"bytes"
	"math/rand"
	"testing"

	"jobsched/internal/job"
)

// naive is the brute-force oracle: the same visible order as a slice,
// and which of the jobs the last rebuild placed.
type naive struct {
	jobs    []*job.Job
	hidden  map[job.ID]bool
	rebuilt map[job.ID]bool
}

func newNaive() *naive { return &naive{hidden: map[job.ID]bool{}, rebuilt: map[job.ID]bool{}} }

func (n *naive) push(j *job.Job) { n.jobs = append(n.jobs, j) }

// remove deletes j and reports, like Index.Remove, whether it was there
// and whether the last rebuild (rather than a push since) had placed it.
func (n *naive) remove(j *job.Job) (ok, rebuilt bool) {
	for i, q := range n.jobs {
		if q == j {
			n.jobs = append(n.jobs[:i], n.jobs[i+1:]...)
			delete(n.hidden, j.ID)
			rebuilt = n.rebuilt[j.ID]
			delete(n.rebuilt, j.ID)
			return true, rebuilt
		}
	}
	return false, false
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
		if got := ix.Rank(ix.pos[last.ID]); got != len(vis)-1 {
			t.Fatalf("first query Rank(last) = %d, want %d", got, len(vis)-1)
		}
	}
}

// TestIndexDifferential drives random Push/Remove/Hide/Rebuild
// interleavings against the brute-force oracle.
func TestIndexDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ix := NewIndex()
	var stats Stats
	ix.SetStats(&stats)
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
			n.hidden = map[job.ID]bool{}
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
				n.hidden[j.ID] = true
			}
		default: // rebuild in a random permutation (a replan epoch)
			ix.UnhideAll()
			perm := append(queued[:0:0], queued...)
			rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
			cut := rng.Intn(len(perm) + 1)
			ix.Rebuild(perm[:cut], perm[cut:])
			n.rebuild(perm)
		}
		if step%37 == 0 || step > 5950 {
			checkAgainstNaive(t, ix, n, 1+rng.Intn(300))
		}
	}
	ix.UnhideAll()
	n.hidden = map[job.ID]bool{}
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
// iteration and the width/order-statistic queries — the per-pass hot path.
func TestIndexZeroAlloc(t *testing.T) {
	ix := NewIndex()
	for i := 1; i <= 4096; i++ {
		nodes := 200 + i%56
		if i%97 == 0 {
			nodes = 1 + i%8
		}
		ix.Push(&job.Job{ID: job.ID(i), Nodes: nodes, Estimate: int64(i)})
	}
	var sink int64
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
			t.Errorf("%s: %v allocs per run, want 0", g.name, allocs)
		}
	}
	_ = sink
}

// FuzzIndexOps interprets the input as a sequence of index operations —
// Push (singly and in bursts, fresh and duplicate IDs), Remove (head,
// middle, absent), Hide, UnhideAll, Rebuild — and compares every query
// surface with the naive oracle after each one. The seeds make the slot
// array outgrow its first capacity, drain far enough to compact (with and
// without a rebuilt prefix in front of the pushed tail), and query right
// after a burst of pushes, which is when the deferred ancestor repair has
// the most to catch up on.
func FuzzIndexOps(f *testing.F) {
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
		numOps
	)
	rep := func(n int, op ...byte) []byte { return bytes.Repeat(op, n) }
	f.Add([]byte{opPush, 3, opPush, 4, opHide, 0, opPushDuplicate, 0, opRemoveHead, opUnhideAll, opRemoveAbsent})
	// Growth past the first capacity, then a drain from the middle that compacts.
	f.Add(append(rep(3, opBurst, 40, 5), rep(100, opRemoveMiddle, 7)...))
	// A deep queue drained from the head, then a burst and a hide on what is left.
	f.Add(append(append(rep(5, opBurst, 63, 1), rep(250, opRemoveHead)...), opBurst, 9, 2, opHide, 2))
	// A rebuilt prefix with a pushed tail behind it, drained from both parts until it compacts.
	f.Add(append(append(append(rep(2, opBurst, 50, 3), opRebuild, 5), rep(2, opBurst, 30, 4)...),
		rep(60, opRemoveMiddle, 11, opRemoveMiddle, 200)...))
	// Bursts of six behind a queue that six head removals have just
	// emptied: seven operations a cycle, so that each of the six
	// first-query probes gets its turn right after a burst, over a tree
	// whose synced ancestors all still say "nobody here".
	f.Add(rep(18, opBurst, 5, 40, opRemoveHead, opRemoveHead, opRemoveHead, opRemoveHead, opRemoveHead, opRemoveHead))
	// Hides between pushes and bursts, restored by the removals that follow.
	f.Add(append(rep(20, opPush, 9, opHide, 1, opBurst, 5, 2), rep(30, opUnhideAll, opRemoveMiddle, 3)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		ix := NewIndex()
		n := newNaive()
		nextID, steps := job.ID(0), 0
		arg := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		push := func(seed int) {
			nextID++
			j := &job.Job{ID: nextID, Nodes: 1 + seed%256, Estimate: 1 + int64(seed*101%5000)}
			if !ix.Push(j) {
				t.Fatalf("Push(job %d) refused a fresh ID", j.ID)
			}
			n.push(j)
		}
		remove := func(j *job.Job) {
			// Engine-style: the pass restores what it hid before a start.
			ix.UnhideAll()
			n.hidden = map[job.ID]bool{}
			ok, rebuilt := ix.Remove(j)
			if wantOK, wantRebuilt := n.remove(j); ok != wantOK || rebuilt != wantRebuilt {
				t.Fatalf("Remove(job %d) = %v, %v; oracle %v, %v", j.ID, ok, rebuilt, wantOK, wantRebuilt)
			}
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
				remove(&job.Job{ID: nextID + 1, Nodes: 1, Estimate: 1})
				if len(n.jobs) > 0 { // a stranger carrying a queued job's ID
					remove(&job.Job{ID: n.jobs[0].ID, Nodes: 1, Estimate: 1})
				}
			case opHide:
				if vis := n.visible(); len(vis) > 0 {
					j := vis[arg()*len(vis)/256]
					if !ix.Hide(j) {
						t.Fatalf("Hide(job %d) = false", j.ID)
					}
					n.hidden[j.ID] = true
				}
			case opUnhideAll:
				ix.UnhideAll()
				n.hidden = map[job.ID]bool{}
			case opRebuild:
				// A replan: some deterministic permutation of what is queued.
				perm := append(n.jobs[:0:0], n.jobs...)
				if k := arg(); len(perm) > 1 {
					for i := range perm {
						o := (i*(2*k+1) + k) % len(perm)
						perm[i], perm[o] = perm[o], perm[i]
					}
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
			probeAgainstNaive(t, ix, n, steps, 1+steps*53%300)
			checkAgainstNaive(t, ix, n, 1+steps*53%300)
		}
	})
}
