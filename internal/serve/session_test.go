package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
)

func TestSessionLifecycle(t *testing.T) {
	sess, err := NewSession("m1", Config{Nodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	rs := mustSubmit(t, sess, []JobSpec{
		{Name: "wide", Nodes: 16, Estimate: 100},
		{Name: "narrow", Nodes: 4, Estimate: 50},
	})
	if rs[0].ID != 1 || rs[1].ID != 2 {
		t.Fatalf("ids not dense from 1: %+v", rs)
	}
	// wide occupies the whole machine; narrow waits behind it (FCFS).
	if ji, _ := sess.Job(1); ji.Status != StatusRunning {
		t.Fatalf("job 1 = %v, want running", ji.Status)
	}
	if ji, _ := sess.Job(2); ji.Status != StatusPending {
		t.Fatalf("job 2 = %v, want pending", ji.Status)
	}
	if err := sess.Advance(100); err != nil {
		t.Fatal(err)
	}
	ji, _ := sess.Job(1)
	if ji.Status != StatusDone || ji.End != 100 {
		t.Fatalf("job 1 after advance: %+v", ji)
	}
	if ji, _ := sess.Job(2); ji.Status != StatusRunning || ji.Start != 100 {
		t.Fatalf("job 2 should start the instant 1 completes: %+v", ji)
	}
	if err := sess.Advance(200); err != nil {
		t.Fatal(err)
	}
	agg := sess.Agg()
	if agg.Completed != 2 || agg.SumWait != 100 || agg.SumResponse != 100+150 {
		t.Fatalf("aggregates wrong: %+v", agg)
	}
}

// TestAdvanceIdempotent: re-advancing to the past must be a clean no-op
// (client retries of a committed advance replay harmlessly).
func TestAdvanceIdempotent(t *testing.T) {
	sess, err := NewSession("m1", Config{Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, sess, []JobSpec{{Nodes: 8, Estimate: 100}})
	if err := sess.Advance(500); err != nil {
		t.Fatal(err)
	}
	fp := sess.Fingerprint()
	if err := sess.Advance(300); err != nil {
		t.Fatalf("advance into the past must no-op, got %v", err)
	}
	if err := sess.Advance(500); err != nil {
		t.Fatal(err)
	}
	if sess.Fingerprint() != fp {
		t.Fatal("idempotent advances changed state")
	}
}

// TestDeadlineSemantics: a job may start at clock == deadline but is
// expired (withdrawn, never started) one instant later.
func TestDeadlineSemantics(t *testing.T) {
	sess, err := NewSession("m1", Config{Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Blocker holds the machine until t=100.
	mustSubmit(t, sess, []JobSpec{{Name: "blocker", Nodes: 8, Estimate: 100}})
	// Deadline exactly at the release instant: starts.
	mustSubmit(t, sess, []JobSpec{{Name: "ontime", Nodes: 8, Estimate: 10, Deadline: 100}})
	if err := sess.Advance(100); err != nil {
		t.Fatal(err)
	}
	if ji, _ := sess.Job(2); ji.Status != StatusRunning || ji.Start != 100 {
		t.Fatalf("deadline==start instant must still start: %+v", ji)
	}

	// This one's deadline passes while it waits: expired, machine stays free.
	mustSubmit(t, sess, []JobSpec{{Name: "late", Nodes: 8, Estimate: 10, Deadline: 105}})
	if err := sess.Advance(200); err != nil {
		t.Fatal(err)
	}
	ji, _ := sess.Job(3)
	if ji.Status != StatusExpired {
		t.Fatalf("job past its deadline = %v, want expired", ji.Status)
	}
	if agg := sess.Agg(); agg.Expired != 1 {
		t.Fatalf("expired count = %d", agg.Expired)
	}

	// Expiry must advance the clock even with no completions pending:
	// a lone deadlined job in an empty machine expires at deadline+1.
	sess2, err := NewSession("m2", Config{Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, sess2, []JobSpec{{Nodes: 8, Estimate: 10, Deadline: 50}})
	if ji, _ := sess2.Job(1); ji.Status != StatusRunning {
		t.Fatalf("empty machine must start the job immediately: %v", ji.Status)
	}

	// Submitted already past its deadline: expired on arrival.
	if err := sess2.Advance(100); err != nil {
		t.Fatal(err)
	}
	rs := mustSubmit(t, sess2, []JobSpec{{Nodes: 1, Estimate: 5, Deadline: 60}})
	if rs[0].Status != StatusExpired {
		t.Fatalf("deadline in the past on submit = %v, want expired", rs[0].Status)
	}
}

// TestBoundedPendingQueueSheds: beyond MaxPending, submissions are
// recorded as shed and never scheduled.
func TestBoundedPendingQueueSheds(t *testing.T) {
	sess, err := NewSession("m1", Config{Nodes: 1, MaxPending: 2})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]JobSpec, 5)
	for i := range specs {
		specs[i] = JobSpec{Nodes: 1, Estimate: 100}
	}
	rs := mustSubmit(t, sess, specs)
	// The whole batch lands at one instant before any pass runs (engine
	// semantics: arrivals, then passes), so the queue bound admits jobs
	// 1 and 2 and sheds 3–5; job 1 then starts in the pass.
	want := []JobStatus{StatusPending, StatusPending, StatusShed, StatusShed, StatusShed}
	for i, r := range rs {
		if r.Status != want[i] {
			t.Fatalf("job %d = %v, want %v", i+1, r.Status, want[i])
		}
	}
	if ji, _ := sess.Job(1); ji.Status != StatusRunning {
		t.Fatalf("job 1 = %v, want running after the pass", ji.Status)
	}
	if agg := sess.Agg(); agg.Shed != 3 || agg.Submitted != 2 {
		t.Fatalf("aggregates: %+v", agg)
	}
	// Shed jobs stay queryable until evicted.
	if ji, ok := sess.Job(5); !ok || ji.Status != StatusShed {
		t.Fatalf("shed job not queryable: %+v ok=%v", ji, ok)
	}
}

func TestSubmitValidationLeavesStateUntouched(t *testing.T) {
	sess, err := NewSession("m1", Config{Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	fp := sess.Fingerprint()
	_, err = sess.Submit([]JobSpec{
		{Nodes: 2, Estimate: 10},
		{Nodes: 99, Estimate: 10}, // wider than the machine
	})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("want ErrRejected, got %v", err)
	}
	if sess.Fingerprint() != fp {
		t.Fatal("rejected batch mutated the session")
	}
	if _, err := sess.Submit(nil); !errors.Is(err, ErrRejected) {
		t.Fatalf("empty submit: %v", err)
	}
}

// TestSessionMatchesEngine: the session and the batch engine are two
// drivers of one sim.Stepper; fed the same workload they must produce
// identical placements and totals in every cell of the paper's grid.
func TestSessionMatchesEngine(t *testing.T) {
	type cell struct {
		order sched.OrderName
		start sched.StartName
	}
	var cells []cell
	for _, order := range sched.GridOrders() {
		if order == sched.OrderGG {
			cells = append(cells, cell{order, sched.StartList})
			continue
		}
		for _, start := range sched.GridStarts() {
			cells = append(cells, cell{order, start})
		}
	}
	for _, c := range cells {
		name := string(c.order) + "/" + string(c.start)
		r := rand.New(rand.NewSource(7))
		const n, nodes = 300, 64
		jobs := make([]*job.Job, n)
		for i := range jobs {
			jobs[i] = &job.Job{
				Nodes:    1 + r.Intn(nodes),
				Submit:   int64(r.Intn(5000)),
				Estimate: int64(60 + r.Intn(2000)),
			}
			jobs[i].Runtime = jobs[i].Estimate / 2
		}
		sort.Slice(jobs, func(i, k int) bool { return jobs[i].Submit < jobs[k].Submit })
		// IDs follow submission order, which is exactly how the session
		// numbers them.
		for i := range jobs {
			jobs[i].ID = job.ID(i + 1)
		}

		ref, err := sched.New(c.order, c.start, sched.Config{MachineNodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunChecked(sim.Machine{Nodes: nodes}, jobs, ref, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := Aggregates{Submitted: n, Started: n, Completed: n}
		for _, a := range res.Schedule.Allocs {
			want.SumWait += a.Start - a.Job.Submit
			want.SumResponse += a.End - a.Job.Submit
		}

		sess, err := NewSession("m1", Config{Nodes: nodes, Order: string(c.order), Start: string(c.start)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(jobs); {
			k := i
			for k < len(jobs) && jobs[k].Submit == jobs[i].Submit {
				k++
			}
			if err := sess.Advance(jobs[i].Submit); err != nil {
				t.Fatal(err)
			}
			specs := make([]JobSpec, 0, k-i)
			for _, j := range jobs[i:k] {
				specs = append(specs, JobSpec{Nodes: j.Nodes, Estimate: j.Estimate, Runtime: j.Runtime})
			}
			rs := mustSubmit(t, sess, specs)
			for bi, j := range jobs[i:k] {
				if job.ID(rs[bi].ID) != j.ID {
					t.Fatalf("%s: session assigned id %d where engine job %d expected", name, rs[bi].ID, j.ID)
				}
			}
			i = k
		}
		if err := sess.Advance(res.Schedule.Makespan() + 1); err != nil {
			t.Fatal(err)
		}
		for _, a := range res.Schedule.Allocs {
			ji, ok := sess.Job(int64(a.Job.ID))
			if !ok {
				t.Fatalf("%s: job %d missing from session", name, a.Job.ID)
			}
			if ji.Start != a.Start || ji.End != a.End {
				t.Fatalf("%s: job %d ran [%d,%d) in the session, [%d,%d) under the engine",
					name, a.Job.ID, ji.Start, ji.End, a.Start, a.End)
			}
		}
		if agg := sess.Agg(); agg != want {
			t.Fatalf("%s: session totals %+v, engine totals %+v", name, agg, want)
		}
	}
}

// TestSessionInterruptPoisons: an interrupt raised mid-operation
// surfaces ErrInterrupted (the store reloads the session from disk).
func TestSessionInterruptPoisons(t *testing.T) {
	sess, err := NewSession("m1", Config{Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, sess, []JobSpec{{Nodes: 8, Estimate: 100}, {Nodes: 8, Estimate: 100}})
	sess.SetInterrupt(func() bool { return true })
	if err := sess.Advance(1000); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
}

// pollsBefore returns a cancellation hook that reports false for its
// first k polls and true from then on, plus a probe reporting whether
// it has fired.
func pollsBefore(k int) (hook func() bool, fired func() bool) {
	polls := 0
	return func() bool { polls++; return polls > k }, func() bool { return polls > k }
}

// TestSessionInterruptedEmptyPassPoisons: an interrupt that fires inside
// a pass which has picked nothing yet makes the scheduler return an
// empty, truncated pick list — indistinguishable from "nothing
// startable" unless the loop polls again after the pass. Whenever the
// hook fired during an operation, the operation must fail with
// ErrInterrupted instead of committing a state replay would not
// reproduce; when it never fired, the job must have started.
func TestSessionInterruptedEmptyPassPoisons(t *testing.T) {
	for _, start := range sched.GridStarts() {
		for k := 0; k <= 4; k++ {
			// Submit of one startable job on an empty machine.
			sess, err := NewSession("m1", Config{Nodes: 8, Start: string(start)})
			if err != nil {
				t.Fatal(err)
			}
			hook, fired := pollsBefore(k)
			sess.SetInterrupt(hook)
			_, err = sess.Submit([]JobSpec{{Nodes: 4, Estimate: 100}})
			checkInterruptOutcome(t, fmt.Sprintf("%s submit k=%d", start, k), sess, 1, err, fired())

			// Advance whose last instant frees the machine for a waiting job.
			sess, err = NewSession("m1", Config{Nodes: 8, Start: string(start)})
			if err != nil {
				t.Fatal(err)
			}
			mustSubmit(t, sess, []JobSpec{{Nodes: 8, Estimate: 100}, {Nodes: 4, Estimate: 100}})
			hook, fired = pollsBefore(k)
			sess.SetInterrupt(hook)
			err = sess.Advance(100)
			checkInterruptOutcome(t, fmt.Sprintf("%s advance k=%d", start, k), sess, 2, err, fired())
		}
	}
}

func checkInterruptOutcome(t *testing.T, name string, sess *Session, id int64, err error, fired bool) {
	t.Helper()
	if fired {
		if !errors.Is(err, ErrInterrupted) {
			ji, _ := sess.Job(id)
			t.Fatalf("%s: the hook fired mid-operation but the operation returned %v with job %d %s", name, err, id, ji.Status)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: the hook never fired, got %v", name, err)
	}
	if ji, _ := sess.Job(id); ji.Status != StatusRunning {
		t.Fatalf("%s: uninterrupted operation left job %d %s", name, id, ji.Status)
	}
}
