package sim

import (
	"math/rand"
	"strings"
	"testing"

	"jobsched/internal/job"
)

// handDriver drives a Stepper the way a service would: a clock moved in
// arbitrary chunks, arrivals submitted at their instant.
type handDriver struct {
	t      *testing.T
	st     *Stepper
	sched  *fifoScheduler
	clock  int64
	allocs []Allocation // in start order, like Result.Schedule.Allocs
	ended  map[job.ID]int64
}

func (d *handDriver) passes(now int64) {
	d.t.Helper()
	started, err := d.st.RunPasses(now)
	if err != nil {
		d.t.Fatal(err)
	}
	for _, e := range started {
		if e.Seq != len(d.allocs) {
			d.t.Fatalf("job %d started with seq %d, want %d", e.Job.ID, e.Seq, len(d.allocs))
		}
		d.allocs = append(d.allocs, e.Allocation())
	}
}

func (d *handDriver) complete(now int64) {
	for _, e := range d.st.Complete(now) {
		d.ended[e.Job.ID] = now
	}
}

// advance moves the clock to `to`, visiting every completion instant
// strictly before it. The instant `to` itself is left to the caller,
// who may have arrivals to insert between its completions and passes.
func (d *handDriver) advance(to int64) {
	for {
		at, ok := d.st.NextCompletion()
		if !ok || at >= to {
			break
		}
		d.complete(at)
		d.passes(at)
	}
	d.clock = to
}

// instant runs one full instant at the current clock.
func (d *handDriver) instant(arrivals []*job.Job) {
	d.complete(d.clock)
	for _, j := range arrivals {
		d.st.Submit(j, d.clock)
	}
	d.passes(d.clock)
}

// restart replaces the stepper and scheduler with fresh ones rebuilt
// from the stepper's own running entries and the waiting queue — what a
// daemon does when it restores a snapshot.
func (d *handDriver) restart(m Machine) {
	d.t.Helper()
	entries, seq := d.st.Entries(), d.st.StartSeq()
	queue := append([]*job.Job(nil), d.sched.queue...)
	d.sched = &fifoScheduler{}
	d.st = NewStepper(m, d.sched, Options{})
	for _, j := range queue {
		d.st.Submit(j, j.Submit)
	}
	if err := d.st.Restore(entries, seq); err != nil {
		d.t.Fatal(err)
	}
}

// TestStepperHandDrivenMatchesRun: a Stepper driven by hand — clock
// advanced in arbitrary chunk sizes, restored mid-run from its own
// running entries — produces exactly the allocations Run does.
func TestStepperHandDrivenMatchesRun(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := Machine{Nodes: 32}
		jobs := make([]*job.Job, 200)
		for i := range jobs {
			est := int64(10 + r.Intn(400))
			jobs[i] = mkJob(i+1, int64(r.Intn(3000)), est-int64(r.Intn(int(est))), est, 1+r.Intn(m.Nodes))
		}
		job.SortBySubmit(jobs)
		res, err := Run(m, jobs, &fifoScheduler{}, Options{Validate: true})
		if err != nil {
			t.Fatal(err)
		}

		d := &handDriver{t: t, sched: &fifoScheduler{}, ended: map[job.ID]int64{}}
		d.st = NewStepper(m, d.sched, Options{})
		restartAt := len(jobs) / 2
		for i := 0; i < len(jobs); {
			k := i
			for k < len(jobs) && jobs[k].Submit == jobs[i].Submit {
				k++
			}
			for d.clock < jobs[i].Submit {
				d.advance(min(jobs[i].Submit, d.clock+1+int64(r.Intn(150))))
			}
			d.instant(jobs[i:k])
			if i <= restartAt && restartAt < k {
				d.restart(m)
			}
			i = k
		}
		d.advance(res.Schedule.Makespan() + 1)

		if len(d.allocs) != len(res.Schedule.Allocs) {
			t.Fatalf("seed %d: %d allocations by hand, %d from Run", seed, len(d.allocs), len(res.Schedule.Allocs))
		}
		for i, want := range res.Schedule.Allocs {
			got := d.allocs[i]
			if got.Job.ID != want.Job.ID || got.Start != want.Start || got.End != want.End || got.Killed != want.Killed {
				t.Fatalf("seed %d: allocation %d is %v by hand, %v from Run", seed, i, got, want)
			}
			if d.ended[want.Job.ID] != want.End {
				t.Fatalf("seed %d: job %d completed at %d by hand, %d from Run", seed, want.Job.ID, d.ended[want.Job.ID], want.End)
			}
		}
		if d.st.Free() != m.Nodes || d.st.RunningLen() != 0 {
			t.Fatalf("seed %d: drained stepper has %d free nodes and %d running", seed, d.st.Free(), d.st.RunningLen())
		}
	}
}

// TestStepperAbortLeavesStaleCompletion: an aborted attempt's completion
// still marks an instant but delivers nothing, and a restarted attempt
// of the same job completes on its own entry.
func TestStepperAbortLeavesStaleCompletion(t *testing.T) {
	s := &fifoScheduler{}
	st := NewStepper(Machine{Nodes: 4}, s, Options{})
	j := mkJob(1, 0, 100, 100, 4)
	st.Submit(j, 0)
	if started, err := st.RunPasses(0); err != nil || len(started) != 1 {
		t.Fatalf("start: %v %v", started, err)
	}
	if victim, ok := st.AbortNewest(); !ok || victim.Job != j {
		t.Fatalf("aborted %+v %v", victim, ok)
	}
	if st.Free() != 4 || st.RunningLen() != 0 {
		t.Fatalf("after abort: free=%d running=%d", st.Free(), st.RunningLen())
	}
	st.Submit(j, 30)
	if started, err := st.RunPasses(30); err != nil || len(started) != 1 || started[0].Seq != 1 {
		t.Fatalf("restart: %v %v", started, err)
	}
	if at, ok := st.NextCompletion(); !ok || at != 100 {
		t.Fatalf("next completion = %d %v, want the aborted attempt's 100", at, ok)
	}
	if done := st.Complete(100); len(done) != 0 {
		t.Fatalf("aborted attempt delivered %v", done)
	}
	if done := st.Complete(130); len(done) != 1 || done[0].Seq != 1 || st.Free() != 4 {
		t.Fatalf("restarted attempt: %v, free=%d", done, st.Free())
	}
}

func TestStepperRestoreRefusesOversubscription(t *testing.T) {
	st := NewStepper(Machine{Nodes: 4}, &fifoScheduler{}, Options{})
	err := st.Restore([]RunEntry{
		{Job: mkJob(1, 0, 10, 10, 3), Start: 0, End: 10, Seq: 0},
		{Job: mkJob(2, 0, 10, 10, 2), Start: 0, End: 10, Seq: 1},
	}, 2)
	if err == nil || !strings.Contains(err.Error(), "oversubscribe") {
		t.Fatalf("restore of 5 nodes on a 4-node machine: %v", err)
	}
}
