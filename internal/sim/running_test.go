package sim

import (
	"cmp"
	"container/heap"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"jobsched/internal/job"
)

// viewChecker is a scheduler that checks, at every pass, the running list
// the Stepper hands it against its own model of the running set, kept as
// a map from its notifications and walked and sorted by ID at every pass.
// It starts every waiting job that fits, in a random order, so jobs start
// out of ID order.
type viewChecker struct {
	t      *testing.T
	r      *rand.Rand
	queue  []*job.Job
	model  map[job.ID]Running
	passes int
	picked []*job.Job
}

func (c *viewChecker) Name() string                 { return "view-checker" }
func (c *viewChecker) Submit(j *job.Job, now int64) { c.queue = append(c.queue, j) }
func (c *viewChecker) QueueLen() int                { return len(c.queue) }

func (c *viewChecker) JobStarted(j *job.Job, now int64) {
	c.queue = slices.DeleteFunc(c.queue, func(q *job.Job) bool { return q == j })
	c.model[j.ID] = Running{Job: j, Start: now, EstEnd: job.AddSat(now, j.Estimate)}
}

func (c *viewChecker) JobFinished(j *job.Job, now int64) { delete(c.model, j.ID) }

// want is the oracle: the model's running set, walked and sorted by ID.
func (c *viewChecker) want() []Running {
	var out []Running
	for _, r := range c.model {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b Running) int { return cmp.Compare(a.Job.ID, b.Job.ID) })
	return out
}

func (c *viewChecker) Startable(now int64, free int, running []Running) []*job.Job {
	c.t.Helper()
	c.passes++
	if want := c.want(); !slices.Equal(running, want) {
		c.t.Fatalf("pass %d at %d: Startable got running %v, want %v", c.passes, now, running, want)
	}
	c.picked = c.picked[:0]
	for _, i := range c.r.Perm(len(c.queue)) {
		if j := c.queue[i]; j.Nodes <= free {
			c.picked = append(c.picked, j)
			free -= j.Nodes
		}
	}
	return c.picked
}

// checkRunningSet verifies the Stepper's own invariants: the record
// strictly ID-ordered, the view aligned with it entry for entry, and the
// free count plus the running nodes equal to the current capacity.
func checkRunningSet(t *testing.T, st *Stepper, capacity int) {
	t.Helper()
	if len(st.view) != len(st.running) {
		t.Fatalf("view has %d entries, record %d", len(st.view), len(st.running))
	}
	used := 0
	for i, e := range st.running {
		if i > 0 && st.running[i-1].Job.ID >= e.Job.ID {
			t.Fatalf("running set out of ID order at %d: %d then %d", i, st.running[i-1].Job.ID, e.Job.ID)
		}
		if v := st.view[i]; v != (Running{Job: e.Job, Start: e.Start, EstEnd: job.AddSat(e.Start, e.Job.Estimate)}) {
			t.Fatalf("view entry %d is %+v for record %+v", i, v, e)
		}
		used += e.Job.Nodes
	}
	if st.Free()+used != capacity {
		t.Fatalf("free %d + running %d != capacity %d", st.Free(), used, capacity)
	}
}

// TestStepperViewMatchesSortedRunningSet drives Steppers by hand through
// random arrivals, out-of-ID-order starts, capacity drops that abort the
// newest jobs (which are resubmitted) and mid-run restarts from Entries
// and Restore, and compares the running list of every pass against the
// map-walk-and-sort oracle.
func TestStepperViewMatchesSortedRunningSet(t *testing.T) {
	const nodes = 16
	m := Machine{Nodes: nodes}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		ids := r.Perm(300)
		jobs := make([]*job.Job, len(ids))
		for i, id := range ids {
			est := int64(5 + r.Intn(200))
			jobs[i] = mkJob(id+1, int64(r.Intn(4000)), 1+int64(r.Intn(int(est))), est, 1+r.Intn(nodes/2))
		}
		job.SortBySubmit(jobs)

		c := &viewChecker{t: t, r: r, model: map[job.ID]Running{}}
		st := NewStepper(m, c, Options{})
		var (
			next, outage, aborts, restarts int
			repairAt                       int64 = -1
		)
		for next < len(jobs) || st.RunningLen() > 0 || len(c.queue) > 0 {
			now := int64(-1)
			if next < len(jobs) {
				now = jobs[next].Submit
			}
			if at, ok := st.NextCompletion(); ok && (now < 0 || at < now) {
				now = at
			}
			if repairAt >= 0 && (now < 0 || repairAt < now) {
				now = repairAt
			}
			if now < 0 {
				t.Fatalf("seed %d: %d jobs waiting with nothing to wait for", seed, len(c.queue))
			}
			st.Complete(now)
			if now == repairAt {
				st.AddCapacity(outage)
				outage, repairAt = 0, -1
			}
			if outage == 0 && r.Intn(8) == 0 {
				outage, repairAt = 1+r.Intn(nodes/2), now+1+int64(r.Intn(150))
				st.AddCapacity(-outage)
				for st.Free() < 0 {
					newest := -1
					want := c.want()
					for i, e := range want {
						if newest < 0 || e.Start > want[newest].Start ||
							(e.Start == want[newest].Start && e.Job.ID > want[newest].Job.ID) {
							newest = i
						}
					}
					victim, ok := st.AbortNewest()
					if !ok || victim.Job != want[newest].Job {
						t.Fatalf("seed %d: aborted %+v (%v), want the newest %+v", seed, victim, ok, want[newest])
					}
					delete(c.model, victim.Job.ID)
					aborts++
					if err := st.Submit(victim.Job, now); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkRunningSet(t, st, nodes-outage)
			for ; next < len(jobs) && jobs[next].Submit == now; next++ {
				if err := st.Submit(jobs[next], now); err != nil {
					t.Fatal(err)
				}
			}
			if r.Intn(20) == 0 {
				entries, seq := st.Entries(), st.StartSeq()
				if !slices.IsSortedFunc(entries, func(a, b RunEntry) int { return cmp.Compare(a.Seq, b.Seq) }) {
					t.Fatalf("seed %d: Entries not in start order", seed)
				}
				free := st.Free()
				st = NewStepper(m, c, Options{})
				st.AddCapacity(-outage)
				if err := st.Restore(entries, seq); err != nil {
					t.Fatal(err)
				}
				if st.Free() != free {
					t.Fatalf("seed %d: restored stepper has %d free nodes, want %d", seed, st.Free(), free)
				}
				restarts++
			}
			if _, err := st.RunPasses(now); err != nil {
				t.Fatal(err)
			}
			checkRunningSet(t, st, nodes-outage)
		}
		if aborts == 0 || restarts == 0 {
			t.Fatalf("seed %d: %d aborts and %d restarts; the run must exercise both", seed, aborts, restarts)
		}
	}
}

// refCompletions is container/heap's view of the completion heap, the
// oracle for the typed one.
type refCompletions []completion

func (h refCompletions) Len() int           { return len(h) }
func (h refCompletions) Less(i, j int) bool { return completionHeap(h).less(i, j) }
func (h refCompletions) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refCompletions) Push(x any)        { *h = append(*h, x.(completion)) }
func (h *refCompletions) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestCompletionHeapMatchesContainerHeap: random pushes and pops, with
// many ties on the time, pop the same sequence from the typed heap as
// from container/heap — including from a bulk load fixed up by init.
func TestCompletionHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		var got completionHeap
		var want refCompletions
		seq := 0
		for range r.Intn(30) {
			c := completion{at: int64(r.Intn(10)), seq: seq}
			seq++
			got = append(got, c)
			want = append(want, c)
		}
		got.init()
		heap.Init(&want)
		for op := 0; op < 2000; op++ {
			if want.Len() > 0 && r.Intn(5) < 2 {
				g, w := got.pop(), heap.Pop(&want).(completion)
				if g != w {
					t.Fatalf("seed %d op %d: popped (%d,%d), container/heap pops (%d,%d)", seed, op, g.at, g.seq, w.at, w.seq)
				}
				continue
			}
			c := completion{at: int64(r.Intn(50)), seq: seq}
			seq++
			got.push(c)
			heap.Push(&want, c)
		}
		for want.Len() > 0 {
			if g, w := got.pop(), heap.Pop(&want).(completion); g != w {
				t.Fatalf("seed %d drain: popped (%d,%d), container/heap pops (%d,%d)", seed, g.at, g.seq, w.at, w.seq)
			}
		}
		if len(got) != 0 {
			t.Fatalf("seed %d: typed heap kept %d entries", seed, len(got))
		}
	}
}

// TestStepperRestoreRefusesDuplicateID: two restored entries with one
// job ID are an error naming the ID, not a silent overwrite whose
// completion would be skipped and whose nodes would leak.
func TestStepperRestoreRefusesDuplicateID(t *testing.T) {
	st := NewStepper(Machine{Nodes: 8}, &fifoScheduler{}, Options{})
	err := st.Restore([]RunEntry{
		{Job: mkJob(7, 0, 10, 10, 2), Start: 0, End: 10, Seq: 0},
		{Job: mkJob(7, 0, 20, 20, 3), Start: 0, End: 20, Seq: 1},
	}, 2)
	if err == nil || !strings.Contains(err.Error(), "job ID 7") {
		t.Fatalf("restore of job 7 twice: %v", err)
	}
}

// reuseScheduler is a FIFO scheduler whose passes allocate nothing once
// its buffers are warm.
type reuseScheduler struct {
	queue, out []*job.Job
}

func (s *reuseScheduler) Name() string                     { return "reuse" }
func (s *reuseScheduler) Submit(j *job.Job, now int64)     { s.queue = append(s.queue, j) }
func (s *reuseScheduler) JobStarted(j *job.Job, now int64) { s.queue = slices.Delete(s.queue, 0, 1) }
func (s *reuseScheduler) JobFinished(*job.Job, int64)      {}
func (s *reuseScheduler) QueueLen() int                    { return len(s.queue) }

func (s *reuseScheduler) Startable(now int64, free int, running []Running) []*job.Job {
	s.out = s.out[:0]
	if len(s.queue) > 0 && s.queue[0].Nodes <= free {
		s.out = append(s.out, s.queue[0])
	}
	return s.out
}

// TestStepperCycleZeroAlloc gates the engine's per-job cost: with its
// buffers warm, a Submit → RunPasses → Complete cycle — a start inserted
// among running jobs, a completion pushed on and popped off the heap —
// allocates nothing.
func TestStepperCycleZeroAlloc(t *testing.T) {
	s := &reuseScheduler{queue: make([]*job.Job, 0, 4)}
	st := NewStepper(Machine{Nodes: 64}, s, Options{})
	for i := 0; i < 32; i++ {
		// Long-running background jobs on both sides of the cycled ID.
		st.Submit(mkJob(2*i, 0, 1<<40, 1<<40, 1), 0)
		if _, err := st.RunPasses(0); err != nil {
			t.Fatal(err)
		}
	}
	j := mkJob(31, 0, 10, 10, 4)
	now := int64(0)
	cycle := func() {
		if err := st.Submit(j, now); err != nil {
			t.Fatal(err)
		}
		if started, err := st.RunPasses(now); err != nil || len(started) != 1 {
			t.Fatalf("started %v: %v", started, err)
		}
		now += 10
		if done := st.Complete(now); len(done) != 1 {
			t.Fatalf("completed %v", done)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a Submit → RunPasses → Complete cycle allocates %v objects, want 0", allocs)
	}
}
