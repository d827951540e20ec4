package sched

import (
	"testing"

	"jobsched/internal/job"
)

func TestPSRSPlanContainsAllJobsOnce(t *testing.T) {
	o := NewPSRSOrder(Config{MachineNodes: 8})
	jobs := []*job.Job{
		j(0, 1, 100), j(1, 8, 50), j(2, 4, 3000), j(3, 5, 7), j(4, 3, 100),
		j(5, 2, 10), j(6, 7, 99),
	}
	plan := o.computePlan(jobs)
	if len(plan) != len(jobs) {
		t.Fatalf("plan has %d jobs, want %d", len(plan), len(jobs))
	}
	seen := map[job.ID]bool{}
	for _, p := range plan {
		if seen[p.ID] {
			t.Fatalf("job %d duplicated", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestPSRSSmithRatioOrder(t *testing.T) {
	// Unit weights: modified Smith ratio = 1/(nodes × est) → small-area
	// jobs first. Two small jobs with very different areas, no wide jobs:
	// the preemptive completion times preserve the ratio order, so the
	// plan must start with the small-area job.
	o := NewPSRSOrder(Config{MachineNodes: 8})
	small := j(0, 1, 10) // area 10
	big := j(1, 4, 1000) // area 4000
	plan := o.computePlan([]*job.Job{big, small})
	if plan[0] != small {
		t.Errorf("plan = %v, want small-area job first", ids(plan))
	}
}

func TestPSRSWeightedDegeneracy(t *testing.T) {
	// Weight = estimated area ⇒ modified Smith ratio = 1 for all jobs:
	// ties broken by ID, so the ratio order equals submission order.
	c := Config{MachineNodes: 8, Weight: job.AreaWeight}
	o := NewPSRSOrder(c)
	jobs := []*job.Job{j(0, 1, 1000), j(1, 4, 10), j(2, 2, 500)}
	for _, jj := range jobs {
		if r := o.modifiedSmith(jj); r != 1 {
			t.Fatalf("modified Smith ratio = %v, want 1 (degenerate)", r)
		}
	}
}

func TestPSRSPreemptiveCompletionsSmallJobs(t *testing.T) {
	// Two 1-node jobs on a 2-node machine run concurrently from 0.
	o := NewPSRSOrder(Config{MachineNodes: 2})
	a, b := j(0, 1, 10), j(1, 1, 20)
	comp := o.preemptiveCompletions([]*job.Job{a, b})
	if comp[a.ID] != 10 {
		t.Errorf("a completes at %v, want 10", comp[a.ID])
	}
	if comp[b.ID] != 20 {
		t.Errorf("b completes at %v, want 20", comp[b.ID])
	}
}

func TestPSRSPreemptiveListSemantics(t *testing.T) {
	// Machine 4. Order: a(3n,10), b(2n,10), c(1n,10). b does not fit at
	// t=0 (only 1 free) and blocks the list; c must NOT start before b
	// (greedy list, not free-for-all).
	o := NewPSRSOrder(Config{MachineNodes: 4})
	a, b, c := j(0, 3, 10), j(1, 2, 10), j(2, 1, 10)
	comp := o.preemptiveCompletions([]*job.Job{a, b, c})
	if comp[a.ID] != 10 {
		t.Errorf("a at %v, want 10", comp[a.ID])
	}
	if comp[b.ID] != 20 {
		t.Errorf("b at %v, want 20 (starts when a drains)", comp[b.ID])
	}
	if comp[c.ID] != 20 {
		t.Errorf("c at %v, want 20 (starts with b)", comp[c.ID])
	}
}

func TestPSRSWideJobPreempts(t *testing.T) {
	// Machine 4. Order: small(1n, est 100) then wide(3n... wide means
	// > 2 nodes on a 4-node machine: use 4n, est 10). The wide job
	// cannot start (only 3 free), waits; after waiting 10 (= its est) it
	// preempts the small job, runs [10,20), and the small job resumes,
	// finishing at 110.
	o := NewPSRSOrder(Config{MachineNodes: 4})
	small := j(0, 1, 100)
	wide := j(1, 4, 10)
	comp := o.preemptiveCompletions([]*job.Job{small, wide})
	if comp[wide.ID] != 20 {
		t.Errorf("wide completes at %v, want 20", comp[wide.ID])
	}
	if comp[small.ID] != 110 {
		t.Errorf("small completes at %v, want 110 (preempted for 10)", comp[small.ID])
	}
}

func TestPSRSWideJobStartsWithoutPreemptionWhenMachineDrains(t *testing.T) {
	// Small job est 5 finishes before the wide job's patience (est 50)
	// runs out → wide starts at 5 without preemption.
	o := NewPSRSOrder(Config{MachineNodes: 4})
	small := j(0, 1, 5)
	wide := j(1, 4, 50)
	comp := o.preemptiveCompletions([]*job.Job{small, wide})
	if comp[small.ID] != 5 {
		t.Errorf("small at %v, want 5", comp[small.ID])
	}
	if comp[wide.ID] != 55 {
		t.Errorf("wide at %v, want 55", comp[wide.ID])
	}
}

func TestPSRSWideFirstInEmptyMachine(t *testing.T) {
	// A wide job at the head of an empty machine starts immediately.
	o := NewPSRSOrder(Config{MachineNodes: 4})
	wide := j(0, 4, 10)
	later := j(1, 1, 10)
	comp := o.preemptiveCompletions([]*job.Job{wide, later})
	if comp[wide.ID] != 10 {
		t.Errorf("wide at %v, want 10", comp[wide.ID])
	}
	if comp[later.ID] != 20 {
		t.Errorf("later at %v, want 20", comp[later.ID])
	}
}

func TestGeomSeqBin(t *testing.T) {
	cases := []struct {
		t      float64
		offset float64
		want   int
	}{
		{1, 1, 0}, {2, 1, 1}, {3, 1, 2}, {4, 1, 2}, {5, 1, 3},
		{1.5, 1.5, 0}, {3, 1.5, 1}, {6, 1.5, 2},
	}
	for _, c := range cases {
		if got := geomSeqBin(c.t, c.offset); got != c.want {
			t.Errorf("geomSeqBin(%v, %v) = %d, want %d", c.t, c.offset, got, c.want)
		}
	}
	// Pathological inputs clamp instead of looping forever.
	if got := geomSeqBin(1e300, 1); got != 128 {
		t.Errorf("clamp = %d, want 128", got)
	}
}

func TestPSRSAlternationStartsWithSmall(t *testing.T) {
	// One wide and one small job completing in the same geometric era:
	// the final order starts with the small bin.
	o := NewPSRSOrder(Config{MachineNodes: 4})
	small := j(0, 1, 2) // completes at 2 in the preemptive schedule
	wide := j(1, 4, 2)  // wide (> 2 nodes)
	plan := o.computePlan([]*job.Job{wide, small})
	if plan[0] != small {
		t.Errorf("plan = %v, want the small job first", ids(plan))
	}
}

func TestPSRSOrderLifecycle(t *testing.T) {
	o := NewPSRSOrder(Config{MachineNodes: 4})
	a, b := j(0, 1, 10), j(1, 2, 20)
	o.Push(a, 0)
	o.Push(b, 0)
	if o.Len() != 2 {
		t.Fatalf("Len = %d", o.Len())
	}
	if got := orderedOf(o, 0); len(got) != 2 {
		t.Fatalf("Ordered = %v", ids(got))
	}
	o.Remove(b, 0)
	if o.Len() != 1 {
		t.Fatalf("Len = %d after remove", o.Len())
	}
	if got := orderedOf(o, 0); len(got) != 1 || got[0] != a {
		t.Fatalf("Ordered = %v, want [a]", ids(got))
	}
}
