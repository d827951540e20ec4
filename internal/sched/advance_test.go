package sched

import (
	"math/rand"
	"strings"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/sim"
)

func TestNewCalendarValidation(t *testing.T) {
	ok := []AdvanceReservation{
		{Name: "siteA", Nodes: 4, Start: 100, End: 200},
		{Name: "siteB", Nodes: 4, Start: 150, End: 250},
	}
	if _, err := NewCalendar(8, ok); err != nil {
		t.Fatalf("valid calendar rejected: %v", err)
	}
	bad := [][]AdvanceReservation{
		{{Nodes: 0, Start: 0, End: 10}},
		{{Nodes: 9, Start: 0, End: 10}},
		{{Nodes: 1, Start: 10, End: 10}},
		{{Nodes: 1, Start: -5, End: 10}},
		// Overlapping reservations exceeding the machine.
		{{Nodes: 5, Start: 0, End: 100}, {Nodes: 5, Start: 50, End: 150}},
	}
	for i, entries := range bad {
		if _, err := NewCalendar(8, entries); err == nil {
			t.Errorf("bad calendar %d accepted", i)
		}
	}
	if _, err := NewCalendar(0, nil); err == nil {
		t.Error("zero machine accepted")
	}
}

func TestCalendarEntriesSorted(t *testing.T) {
	c, err := NewCalendar(8, []AdvanceReservation{
		{Name: "late", Nodes: 1, Start: 500, End: 600},
		{Name: "early", Nodes: 1, Start: 100, End: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := c.Entries()
	if e[0].Name != "early" || e[1].Name != "late" {
		t.Errorf("entries not sorted: %v", e)
	}
}

func TestReservedStarterName(t *testing.T) {
	cal, _ := NewCalendar(8, nil)
	s := NewReservedStarter(NewEASYStarter(), cal)
	if !strings.Contains(s.Name(), "reservations") {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestReservedStarterBlocksIntrudingJob(t *testing.T) {
	// Machine 8, reservation of all 8 nodes at [100, 200). A job with
	// estimate 150 at t=0 would intrude → refused; estimate 100 → ok.
	cal, err := NewCalendar(8, []AdvanceReservation{
		{Name: "course", Nodes: 8, Start: 100, End: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewReservedStarter(NewListStarter(), cal)
	long := j(0, 1, 150)
	if got := pickNext(s, []*job.Job{long}, 0, 8, nil, 8); got != nil {
		t.Errorf("intruding job admitted: %v", got)
	}
	short := j(1, 1, 100)
	if got := pickNext(s, []*job.Job{short}, 0, 8, nil, 8); got != short {
		t.Errorf("fitting job refused")
	}
}

func TestReservedStarterPartialReservationAdmitsNarrowJobs(t *testing.T) {
	// Reservation of 6 of 8 nodes at [100, 200): a 2-node long job still
	// fits alongside; a 3-node long job does not.
	cal, err := NewCalendar(8, []AdvanceReservation{
		{Name: "siteA", Nodes: 6, Start: 100, End: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewReservedStarter(NewListStarter(), cal)
	narrow := j(0, 2, 500)
	if got := pickNext(s, []*job.Job{narrow}, 0, 8, nil, 8); got != narrow {
		t.Error("narrow job refused")
	}
	wide := j(1, 3, 500)
	if got := pickNext(s, []*job.Job{wide}, 0, 8, nil, 8); got != nil {
		t.Errorf("wide intruding job admitted: %v", got)
	}
}

// TestReservationsHardGuarantee runs full simulations with a calendar
// and verifies the promise: during every reserved window, at least the
// reserved nodes are free in the final schedule. Kill-at-limit makes
// estimates hard caps, so the guarantee must hold exactly.
func TestReservationsHardGuarantee(t *testing.T) {
	const nodes = 16
	entries := []AdvanceReservation{
		{Name: "meta1", Nodes: 8, Start: 2000, End: 4000},
		{Name: "meta2", Nodes: 16, Start: 9000, End: 10000},
		{Name: "meta3", Nodes: 4, Start: 15000, End: 20000},
	}
	cal, err := NewCalendar(nodes, entries)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(55))
	jobs := make([]*job.Job, 250)
	var at int64
	for i := range jobs {
		at += int64(r.Intn(120))
		est := int64(1 + r.Intn(2500))
		jobs[i] = &job.Job{ID: job.ID(i), Submit: at, Nodes: 1 + r.Intn(nodes),
			Estimate: est, Runtime: 1 + r.Int63n(est)}
	}
	for _, inner := range []Starter{NewListStarter(), NewEASYStarter(), NewGareyGrahamStarter()} {
		alg := Compose(NewFCFSOrder("FCFS"), NewReservedStarter(inner, cal), nodes)
		res, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), alg,
			sim.Options{Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Schedule.Allocs) != len(jobs) {
			t.Fatalf("%s: %d of %d jobs", inner.Name(), len(res.Schedule.Allocs), len(jobs))
		}
		for _, e := range entries {
			for _, a := range res.Schedule.Allocs {
				if a.Start < e.End && a.End > e.Start {
					// Overlapping allocations may use at most machine -
					// reserved nodes in total; check pointwise usage.
					used := usedAt(res.Schedule, maxI64(a.Start, e.Start))
					if nodes-used < e.Nodes {
						t.Fatalf("%s: reservation %q violated: %d nodes in use at %d",
							inner.Name(), e.Name, used, a.Start)
					}
				}
			}
		}
	}
}

// TestReservedStarterTransparentWithoutEntries: wrapping any policy with
// an empty calendar must not change a single placement — in particular,
// strict-list head blocking must survive the wrapping.
func TestReservedStarterTransparentWithoutEntries(t *testing.T) {
	cal, err := NewCalendar(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(66))
	jobs := randomJobs(r, 300, 16)
	for _, mk := range []func() Starter{
		func() Starter { return NewListStarter() },
		func() Starter { return NewEASYStarter() },
		func() Starter { return NewConservativeStarter(0) },
	} {
		plain := Compose(NewFCFSOrder("FCFS"), mk(), 16)
		wrapped := Compose(NewFCFSOrder("FCFS"), NewReservedStarter(mk(), cal), 16)
		pres, err := sim.RunChecked(sim.Machine{Nodes: 16}, job.CloneAll(jobs), plain,
			sim.Options{Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		wres, err := sim.RunChecked(sim.Machine{Nodes: 16}, job.CloneAll(jobs), wrapped,
			sim.Options{Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		starts := map[job.ID]int64{}
		for _, a := range pres.Schedule.Allocs {
			starts[a.Job.ID] = a.Start
		}
		for _, a := range wres.Schedule.Allocs {
			if starts[a.Job.ID] != a.Start {
				t.Fatalf("%s: job %d start changed %d → %d under empty calendar",
					plain.Name(), a.Job.ID, starts[a.Job.ID], a.Start)
			}
		}
	}
}

// TestReservedStarterKeepsHeadBlocking: with a calendar present, a job
// that merely does not fit the free nodes must NOT be filtered — the
// strict list head still blocks the queue.
func TestReservedStarterKeepsHeadBlocking(t *testing.T) {
	cal, err := NewCalendar(8, []AdvanceReservation{
		{Name: "far", Nodes: 8, Start: 1 << 40, End: 1<<40 + 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewReservedStarter(NewListStarter(), cal)
	head := j(0, 8, 10) // does not fit 4 free nodes
	small := j(1, 1, 10)
	if got := pickNext(s, []*job.Job{head, small}, 0, 4, nil, 8); got != nil {
		t.Fatalf("list head blocking broken: picked %v", got)
	}
}

func usedAt(s *sim.Schedule, t int64) int {
	used := 0
	for _, a := range s.Allocs {
		if a.Start <= t && t < a.End {
			used += a.Job.Nodes
		}
	}
	return used
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
