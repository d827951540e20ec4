package sched

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"jobsched/internal/job"
	"jobsched/internal/objective"
	"jobsched/internal/queue"
	"jobsched/internal/sim"
)

func TestNewBuildsEveryGridCell(t *testing.T) {
	cfg := Config{MachineNodes: 16}
	for _, o := range GridOrders() {
		for _, s := range GridStarts() {
			alg, err := New(o, s, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", o, s, err)
			}
			if alg.Name() == "" {
				t.Errorf("%s/%s: empty name", o, s)
			}
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(OrderFCFS, StartList, Config{}); err == nil {
		t.Error("zero machine accepted")
	}
	if _, err := New("nope", StartList, Config{MachineNodes: 4}); err == nil {
		t.Error("unknown order accepted")
	}
	// Garey&Graham ignores a valid start policy, not an invalid one.
	for _, o := range GridOrders() {
		if _, err := New(o, "nope", Config{MachineNodes: 4}); err == nil {
			t.Errorf("%s: unknown starter accepted", o)
		}
	}
}

func TestGareyGrahamIgnoresStartPolicy(t *testing.T) {
	cfg := Config{MachineNodes: 16}
	for _, s := range GridStarts() {
		alg, err := New(OrderGG, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if alg.Name() != "Garey&Graham/List" {
			t.Errorf("G&G with %s named %q", s, alg.Name())
		}
	}
}

func TestCompositeName(t *testing.T) {
	alg, err := New(OrderFCFS, StartEASY, Config{MachineNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if alg.Name() != "FCFS/EASY-Backfilling" {
		t.Errorf("Name = %q", alg.Name())
	}
}

// randomJobs builds a reproducible random workload for integration tests.
func randomJobs(r *rand.Rand, n, maxNodes int) []*job.Job {
	jobs := make([]*job.Job, n)
	var at int64
	for i := range jobs {
		at += int64(r.Intn(30))
		est := int64(1 + r.Intn(500))
		runtime := 1 + r.Int63n(est)
		jobs[i] = &job.Job{
			ID:       job.ID(i),
			Submit:   at,
			Nodes:    1 + r.Intn(maxNodes),
			Estimate: est,
			Runtime:  runtime,
		}
	}
	return jobs
}

// TestGridCellsCompleteAllJobs runs every algorithm over random
// workloads and checks the fundamental invariants: all jobs complete,
// the schedule is valid, no job starts before submission.
func TestGridCellsCompleteAllJobs(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	const nodes = 16
	jobs := randomJobs(r, 300, nodes)
	for _, o := range GridOrders() {
		for _, s := range GridStarts() {
			alg, err := New(o, s, Config{MachineNodes: nodes})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), alg,
				sim.Options{Validate: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", o, s, err)
			}
			if len(res.Schedule.Allocs) != len(jobs) {
				t.Fatalf("%s/%s: %d jobs scheduled, want %d",
					o, s, len(res.Schedule.Allocs), len(jobs))
			}
		}
	}
}

// TestGridCellsPropertyRandomWorkloads is the heavier property-based
// variant: many random seeds, smaller workloads, all algorithms.
func TestGridCellsPropertyRandomWorkloads(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const nodes = 8
		jobs := randomJobs(r, 60, nodes)
		for _, o := range GridOrders() {
			for _, s := range GridStarts() {
				alg, err := New(o, s, Config{MachineNodes: nodes})
				if err != nil {
					return false
				}
				res, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), alg,
					sim.Options{Validate: true})
				if err != nil || len(res.Schedule.Allocs) != len(jobs) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestFCFSFairness verifies the paper's fairness property of FCFS: "the
// completion time of each job is independent of any job submitted later".
func TestFCFSFairness(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	const nodes = 8
	base := randomJobs(r, 100, nodes)

	runFCFS := func(jobs []*job.Job) map[job.ID]int64 {
		alg, err := New(OrderFCFS, StartList, Config{MachineNodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), alg,
			sim.Options{Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		out := map[job.ID]int64{}
		for _, a := range res.Schedule.Allocs {
			out[a.Job.ID] = a.End
		}
		return out
	}

	full := runFCFS(base)
	// Drop the last 30 jobs (latest submitters) and re-run: the first 70
	// completions must be identical.
	sorted := job.SortBySubmit(job.CloneAll(base))
	prefix := sorted[:70]
	partial := runFCFS(prefix)
	for _, p := range prefix {
		if full[p.ID] != partial[p.ID] {
			t.Fatalf("job %d completion changed (%d → %d) when later jobs were removed",
				p.ID, partial[p.ID], full[p.ID])
		}
	}
}

// TestGareyGrahamNeverIdlesWhenWorkFits: the defining property of G&G —
// whenever a node count sufficient for some waiting job is free, a job
// is started. We verify a weaker schedule-level consequence: at every
// allocation start time, no waiting job that fits remained unstarted
// (checked indirectly by comparing with a reference greedy packing is
// complex; instead assert G&G's makespan <= strict FCFS list makespan on
// random workloads, which holds because G&G never leaves fitting work
// idle at decision points while FCFS may).
func TestGareyGrahamBeatsBlockedFCFSOnCraftedCase(t *testing.T) {
	// FCFS blocks: the queue head needs the whole machine while a
	// 1-node job could use the idle node. G&G starts the 1-node job at
	// t=2; strict FCFS keeps it waiting behind the blocked head.
	jobs := []*job.Job{
		{ID: 0, Submit: 0, Nodes: 7, Estimate: 100, Runtime: 100},
		{ID: 1, Submit: 1, Nodes: 8, Estimate: 100, Runtime: 100},
		{ID: 2, Submit: 2, Nodes: 1, Estimate: 10, Runtime: 10},
	}
	mk := func(o OrderName) int64 {
		alg, err := New(o, StartList, Config{MachineNodes: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunChecked(sim.Machine{Nodes: 8}, job.CloneAll(jobs), alg,
			sim.Options{Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		a := res.Schedule.ByJobID(2)
		return a.Start
	}
	fcfsStart := mk(OrderFCFS)
	ggStart := mk(OrderGG)
	if ggStart >= fcfsStart {
		t.Fatalf("G&G start %d not earlier than FCFS %d for the skippable job",
			ggStart, fcfsStart)
	}
}

// observedStarter runs a production start policy one decision at a time
// and shows each decision to observe together with the queue and state
// it was made in — the hook the per-decision invariant tests hang their
// assertions on. Like a filtering wrapper, it hides what the pass has
// already picked, limits each inner call to one job and extends the
// running set itself; unlike one, it admits everything.
type observedStarter struct {
	inner   Starter
	observe func(ordered []*job.Job, picked *job.Job, now int64, free int, running []sim.Running, m int)
}

func (s *observedStarter) Name() string { return s.inner.Name() }

func (s *observedStarter) PickMany(ix *queue.Index, now int64, free int, running []sim.Running, m, limit int) []*job.Job {
	var picked []*job.Job
	running = slices.Clone(running)
	for len(picked) < limit && free > 0 {
		for _, p := range picked {
			ix.Hide(p)
		}
		ordered := ix.AppendOrdered(nil)
		var next *job.Job
		if got := s.inner.PickMany(ix, now, free, running, m, 1); len(got) > 0 {
			next = got[0]
		}
		ix.UnhideAll()
		if next == nil {
			break
		}
		s.observe(ordered, next, now, free, running, m)
		picked = append(picked, next)
		free -= next.Nodes
		running = append(running, sim.Running{Job: next, Start: now, EstEnd: now + next.Estimate})
	}
	return picked
}

// shadowAsserter verifies EASY's defining invariant at every decision: a
// backfill must not push out the head's shadow time as projected from
// the estimates at decision time ("EASY backfill will not postpone the
// projected execution of the next job in the list").
type shadowAsserter struct {
	t         *testing.T
	backfills int
}

func (s *shadowAsserter) observe(ordered []*job.Job, picked *job.Job, now int64, free int, running []sim.Running, m int) {
	if picked == ordered[0] {
		return
	}
	// A backfill happened: compare the head's shadow before and after.
	head := ordered[0]
	ends := slices.Clone(running)
	slices.SortFunc(ends, byEstEnd)
	before, _ := shadowTime(head, now, free, ends)
	ends = append(ends, sim.Running{Job: picked, Start: now, EstEnd: now + picked.Estimate})
	slices.SortFunc(ends, byEstEnd)
	after, _ := shadowTime(head, now, free-picked.Nodes, ends)
	s.backfills++
	if after > before {
		s.t.Errorf("backfill of %v at t=%d pushed the head shadow %d → %d",
			picked, now, before, after)
	}
}

// TestEASYBackfillNeverPostponesProjectedHeadStart runs FCFS order with
// the instrumented EASY starter over random workloads and asserts the
// per-decision shadow invariant, which is EASY's definition.
func TestEASYBackfillNeverPostponesProjectedHeadStart(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const nodes = 8
	jobs := randomJobs(r, 400, nodes)
	wrapper := &shadowAsserter{t: t}
	alg := Compose(NewFCFSOrder("FCFS"), &observedStarter{inner: NewEASYStarter(), observe: wrapper.observe}, nodes)
	if _, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), alg,
		sim.Options{Validate: true}); err != nil {
		t.Fatal(err)
	}
	if wrapper.backfills == 0 {
		t.Fatal("workload produced no backfills; the invariant was never exercised")
	}
	t.Logf("checked %d backfill decisions", wrapper.backfills)
}

// TestDuplicateIDIsAnError pins that a job whose ID is still waiting or
// running is refused with an error naming the ID. Queues and the running
// set are keyed by ID and IDs come from outside (the SWF scanner takes
// them from the file); before the check a clash silently overwrote an
// entry and the run never returned. The interrupt hook is a call budget,
// so a regression fails here instead of hanging the suite.
func TestDuplicateIDIsAnError(t *testing.T) {
	mk := func(id int, submit int64, nodes int, rt int64) *job.Job {
		return &job.Job{ID: job.ID(id), Submit: submit, Nodes: nodes, Runtime: rt, Estimate: rt}
	}
	workloads := map[string][]*job.Job{
		// Both ID 1 jobs wait at t=0.
		"waiting": {mk(1, 0, 4, 10), mk(1, 0, 4, 20), mk(2, 5, 8, 10)},
		// The second ID 1 arrives and starts while the first still runs.
		"running": {mk(1, 0, 4, 100), mk(1, 5, 4, 20), mk(2, 6, 8, 10)},
	}
	cfg := Config{MachineNodes: 8}
	schedulers := func() []sim.Scheduler {
		switching, err := NewSwitching(objective.PrimeTime, OrderSMARTFFIA, StartEASY, OrderGG, StartList, cfg)
		if err != nil {
			t.Fatal(err)
		}
		algs := []sim.Scheduler{switching}
		for _, o := range GridOrders() {
			alg, err := New(o, StartEASY, cfg)
			if err != nil {
				t.Fatal(err)
			}
			algs = append(algs, alg)
		}
		return algs
	}
	for name, jobs := range workloads {
		for _, alg := range schedulers() {
			polls := 0
			_, err := sim.Run(sim.Machine{Nodes: 8}, job.CloneAll(jobs), alg,
				sim.Options{Interrupt: func() bool { polls++; return polls > 10_000 }})
			if err == nil || !strings.Contains(err.Error(), "job ID 1 ") {
				t.Errorf("%s, %s: err = %v, want one naming job ID 1", name, alg.Name(), err)
			}
		}
	}
}
