package sched

import (
	"testing"

	"jobsched/internal/job"
)

// identityCompute returns jobs unchanged but counts invocations.
func identityCompute(count *int) func([]*job.Job) []*job.Job {
	return func(jobs []*job.Job) []*job.Job {
		*count++
		return append([]*job.Job(nil), jobs...)
	}
}

func TestReplannerComputesOnFirstUse(t *testing.T) {
	n := 0
	r := newReplanner(2.0/3.0, identityCompute(&n))
	r.Push(j(0, 1, 10), 0)
	r.OrderedIter(0)
	if n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	// A second call without changes must reuse the plan.
	r.OrderedIter(0)
	if n != 1 {
		t.Fatalf("computed %d times after idempotent call, want 1", n)
	}
}

func TestReplannerAppendsArrivalsWithoutRecompute(t *testing.T) {
	n := 0
	r := newReplanner(2.0/3.0, identityCompute(&n))
	for i := 0; i < 6; i++ {
		r.Push(j(i, 1, 10), 0)
	}
	r.OrderedIter(0) // plan over 6 jobs
	if n != 1 {
		t.Fatalf("computed %d, want 1", n)
	}
	// One new arrival: 1/7 < 1/3 of the queue → appended, no recompute.
	extra := j(6, 1, 10)
	r.Push(extra, 0)
	got := r.OrderedIter(0).AppendOrdered(nil)
	if n != 1 {
		t.Fatalf("recomputed too eagerly (%d)", n)
	}
	if got[len(got)-1] != extra {
		t.Fatal("arrival not appended at the end")
	}
}

func TestReplannerRecomputesAfterConsumingPlan(t *testing.T) {
	n := 0
	r := newReplanner(2.0/3.0, identityCompute(&n))
	jobs := make([]*job.Job, 6)
	for i := range jobs {
		jobs[i] = j(i, 1, 10)
		r.Push(jobs[i], 0)
	}
	r.OrderedIter(0)
	// Start (remove) 5 of 6 planned jobs: 5/6 > 2/3 → next ordered()
	// must recompute.
	for i := 0; i < 5; i++ {
		r.Remove(jobs[i], 0)
	}
	r.OrderedIter(0)
	if n != 2 {
		t.Fatalf("computed %d times, want 2", n)
	}
}

func TestReplannerRecomputesOnArrivalFlood(t *testing.T) {
	n := 0
	r := newReplanner(2.0/3.0, identityCompute(&n))
	r.Push(j(0, 1, 10), 0)
	r.OrderedIter(0)
	// Many unplanned arrivals: > 1/3 of the queue → recompute.
	for i := 1; i < 10; i++ {
		r.Push(j(i, 1, 10), 0)
	}
	r.OrderedIter(0)
	if n != 2 {
		t.Fatalf("computed %d times, want 2", n)
	}
}

func TestReplannerRemoveUnplannedJob(t *testing.T) {
	n := 0
	r := newReplanner(2.0/3.0, identityCompute(&n))
	a := j(0, 1, 10)
	r.Push(a, 0)
	r.OrderedIter(0)
	b := j(1, 1, 10)
	r.Push(b, 0) // unplanned
	r.Remove(b, 0)
	if r.Len() != 1 {
		t.Fatalf("len = %d, want 1", r.Len())
	}
	got := r.OrderedIter(0).AppendOrdered(nil)
	if len(got) != 1 || got[0] != a {
		t.Fatalf("ordered = %v", ids(got))
	}
}

func TestReplannerEmpty(t *testing.T) {
	n := 0
	r := newReplanner(2.0/3.0, identityCompute(&n))
	if got := r.OrderedIter(0).AppendOrdered(nil); len(got) != 0 {
		t.Fatalf("ordered on empty = %v", got)
	}
	if n != 0 {
		t.Fatal("computed for empty queue")
	}
}

func TestReplannerPanicsOnBadRatio(t *testing.T) {
	for _, ratio := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for ratio %v", ratio)
				}
			}()
			newReplanner(ratio, identityCompute(new(int)))
		}()
	}
}

func TestReplannerPanicsOnJobSetChange(t *testing.T) {
	r := newReplanner(0.5, func(jobs []*job.Job) []*job.Job {
		return jobs[:0] // broken compute drops jobs
	})
	r.Push(j(0, 1, 10), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic when compute changed the job set")
		}
	}()
	r.OrderedIter(0)
}

func TestFCFSOrder(t *testing.T) {
	o := NewFCFSOrder("FCFS")
	a, b, c := j(0, 1, 10), j(1, 1, 10), j(2, 1, 10)
	o.Push(a, 0)
	o.Push(b, 1)
	o.Push(c, 2)
	got := orderedOf(o, 2)
	if got[0] != a || got[1] != b || got[2] != c {
		t.Fatalf("order = %v", ids(got))
	}
	o.Remove(b, 3)
	got = orderedOf(o, 3)
	if len(got) != 2 || got[0] != a || got[1] != c {
		t.Fatalf("order after remove = %v", ids(got))
	}
	o.Remove(b, 3) // removing an absent job is a no-op
	if o.Len() != 2 {
		t.Fatalf("len = %d", o.Len())
	}
	if o.Name() != "FCFS" {
		t.Error("name")
	}
}
