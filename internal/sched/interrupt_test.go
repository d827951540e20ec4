package sched

import (
	"errors"
	"math/rand"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/objective"
	"jobsched/internal/profile"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

// deepBacklog builds the pathological pass the interrupt hook exists
// for: a 100-node machine with 99 nodes held until t=10000, a queue
// head too wide to start now, and n narrow jobs whose estimates are too
// long for the pre-drain window — so a conservative pass walks all n
// jobs, paying an EarliestFit + Reserve each, and starts none of them.
func deepBacklog(n int) (queue []*job.Job, running []sim.Running) {
	holder := &job.Job{ID: 0, Nodes: 99, Submit: 0, Estimate: 10000, Runtime: 10000}
	running = []sim.Running{{Job: holder, Start: 0, EstEnd: 10000}}
	queue = append(queue, &job.Job{ID: 1, Nodes: 100, Submit: 1, Estimate: 1000, Runtime: 1000})
	for i := 0; i < n; i++ {
		queue = append(queue, &job.Job{ID: job.ID(2 + i), Nodes: 1, Submit: 1, Estimate: 20000, Runtime: 100})
	}
	return queue, running
}

// interruptibleScheduler is what the promptness test drives: a scheduler
// the engine can install its cancellation hook on.
type interruptibleScheduler interface {
	sim.Scheduler
	Interruptible
}

// TestBatchedPassPollsInterrupt pins that a raised interrupt hook bounds
// the work of a single conservative pass — ~2n profile ops uninterrupted
// (one EarliestFit and one Reserve per job), a small constant with the
// hook up — for the plain composition and for the compositions that wrap
// the start policy: the hook has to travel through the wrapper to the
// walk loop that polls it.
func TestBatchedPassPollsInterrupt(t *testing.T) {
	const n = 20000
	queue, running := deepBacklog(n)

	// A reservation far beyond every estimate: the calendar is live (the
	// wrapper asks its rule about every job, every decision) but admits all jobs.
	cal, err := NewCalendar(100, []AdvanceReservation{{Name: "far", Nodes: 1, Start: 1 << 40, End: 1<<40 + 10}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mk   func(h telemetry.Hooks) interruptibleScheduler
	}{
		{"composite", func(h telemetry.Hooks) interruptibleScheduler {
			c := Compose(NewFCFSOrder(string(OrderFCFS)), NewConservativeStarter(0), 100)
			c.Instrument(h)
			return c
		}},
		{"reserved", func(h telemetry.Hooks) interruptibleScheduler {
			c := Compose(NewFCFSOrder(string(OrderFCFS)),
				NewReservedStarter(NewConservativeStarter(0), cal), 100)
			c.Instrument(h)
			return c
		}},
		{"switching", func(h telemetry.Hooks) interruptibleScheduler {
			s, err := NewSwitching(objective.PrimeTime, OrderFCFS, StartConservative,
				OrderFCFS, StartConservative, Config{MachineNodes: 100, Hooks: h})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	for _, tc := range cases {
		var stats profile.Stats
		c := tc.mk(telemetry.Hooks{ProfileStats: &stats})
		for _, j := range queue {
			c.Submit(j, 1)
		}

		// Sanity: the uninterrupted pass really is a full-queue walk (the
		// scenario would otherwise not exercise the hook).
		picked := c.Startable(1, 1, running)
		if len(picked) != 0 {
			t.Fatalf("%s: expected a fruitless pass, started %d jobs", tc.name, len(picked))
		}
		if stats.Total() < int64(n) {
			t.Fatalf("%s: uninterrupted pass did only %d profile ops, want >= %d (scenario too easy)",
				tc.name, stats.Total(), n)
		}

		stats = profile.Stats{}
		c.SetInterrupt(func() bool { return true })
		picked = c.Startable(1, 1, running)
		if len(picked) != 0 {
			t.Fatalf("%s: interrupted pass started %d jobs", tc.name, len(picked))
		}
		if got := stats.Total(); got > 8*interruptStride {
			t.Errorf("%s: interrupted pass did %d profile ops, want <= %d — the pass ignored the hook",
				tc.name, got, 8*interruptStride)
		}
	}
}

// TestRunInterruptBoundsPassWork pins the engine half: sim.Run threads
// Options.Interrupt into the scheduler's pass loops, so a hook raised
// mid-pass aborts the run after a bounded amount of profile work
// instead of finishing an unbounded walk first.
func TestRunInterruptBoundsPassWork(t *testing.T) {
	const n = 20000
	queue, _ := deepBacklog(n)
	holder := &job.Job{ID: 1000000, Nodes: 99, Submit: 0, Estimate: 10000, Runtime: 10000}
	jobs := append([]*job.Job{holder}, queue...)

	var stats profile.Stats
	c := Compose(NewFCFSOrder(string(OrderFCFS)), NewConservativeStarter(0), 100)
	c.Instrument(telemetry.Hooks{ProfileStats: &stats})

	// The hook fires once the deep queue exists — i.e. inside the t=1
	// scheduling pass, after the engine's top-of-batch poll already ran.
	interrupted := func() bool { return c.QueueLen() > n }
	_, err := sim.Run(sim.Machine{Nodes: 100}, jobs, c, sim.Options{Interrupt: interrupted})
	if !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("Run returned %v, want ErrInterrupted", err)
	}
	if got := stats.Total(); got > 8*interruptStride {
		t.Errorf("interrupted run did %d profile ops, want <= %d — the pass ran unbounded", got, 8*interruptStride)
	}
}

// TestInterruptNeverRaisedIsByteIdentical guards the zero-cost contract:
// installing a hook that never fires must not change any decision.
func TestInterruptNeverRaisedIsByteIdentical(t *testing.T) {
	jobs := randomJobs(rand.New(rand.NewSource(99991)), 400, 64)
	for _, order := range GridOrders() {
		for _, start := range GridStarts() {
			base, err := New(order, start, Config{MachineNodes: 64})
			if err != nil {
				t.Fatal(err)
			}
			hooked, err := New(order, start, Config{MachineNodes: 64})
			if err != nil {
				t.Fatal(err)
			}
			hooked.SetInterrupt(func() bool { return false })

			r1, err := sim.Run(sim.Machine{Nodes: 64}, job.CloneAll(jobs), base, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := sim.Run(sim.Machine{Nodes: 64}, job.CloneAll(jobs), hooked, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(r1.Schedule.Allocs) != len(r2.Schedule.Allocs) {
				t.Fatalf("%s/%s: alloc count diverged with a cold hook", order, start)
			}
			for i := range r1.Schedule.Allocs {
				a, b := r1.Schedule.Allocs[i], r2.Schedule.Allocs[i]
				if a.Job.ID != b.Job.ID || a.Start != b.Start || a.End != b.End {
					t.Fatalf("%s/%s: alloc %d diverged with a cold hook: %+v vs %+v",
						order, start, i, a, b)
				}
			}
		}
	}
}

// TestWithdrawRemovesPendingJob covers the service-layer entry point:
// a withdrawn job never starts, and the memo invalidation keeps the
// next pass honest (it must re-walk, not answer from the stale memo).
func TestWithdrawRemovesPendingJob(t *testing.T) {
	c := Compose(NewFCFSOrder(string(OrderFCFS)), NewEASYStarter(), 10)
	a := &job.Job{ID: 1, Nodes: 10, Submit: 0, Estimate: 100, Runtime: 100}
	b := &job.Job{ID: 2, Nodes: 4, Submit: 0, Estimate: 50, Runtime: 50}
	c.Submit(a, 0)
	c.Submit(b, 0)

	picked := c.Startable(0, 10, nil)
	if len(picked) != 1 || picked[0] != a {
		t.Fatalf("expected head start, got %v", picked)
	}
	c.JobStarted(a, 0)

	// Withdraw b before it can start; the queue must drain to empty.
	c.Withdraw(b, 0)
	if c.QueueLen() != 0 {
		t.Fatalf("queue length %d after withdraw, want 0", c.QueueLen())
	}
	if picked := c.Startable(0, 0, []sim.Running{{Job: a, Start: 0, EstEnd: 100}}); len(picked) != 0 {
		t.Fatalf("withdrawn job started: %v", picked)
	}
}
