package queue

import (
	"math/rand"
	"testing"

	"jobsched/internal/job"
)

// naive is the brute-force oracle: the same visible order as a slice.
type naive struct {
	jobs   []*job.Job
	hidden map[job.ID]bool
}

func newNaive() *naive { return &naive{hidden: map[job.ID]bool{}} }

func (n *naive) push(j *job.Job) { n.jobs = append(n.jobs, j) }

func (n *naive) remove(j *job.Job) {
	for i, q := range n.jobs {
		if q == j {
			n.jobs = append(n.jobs[:i], n.jobs[i+1:]...)
			delete(n.hidden, j.ID)
			return
		}
	}
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
	for _, k := range []int{1, 2, len(vis), len(vis) + 7} {
		if k < 1 {
			continue
		}
		var want int64
		for i, j := range vis {
			if i >= k {
				break
			}
			if j.Estimate > want {
				want = j.Estimate
			}
		}
		if got := ix.MaxEstimateFirst(k); got != want {
			t.Fatalf("MaxEstimateFirst(%d) = %d, want %d", k, got, want)
		}
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
			if !ix.Remove(j) {
				t.Fatalf("Remove(job %d) = false", j.ID)
			}
			n.remove(j)
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
			sink += ix.MaxEstimateFirst(1000)
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
