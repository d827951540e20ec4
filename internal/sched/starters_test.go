package sched

import (
	"math"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/queue"
	"jobsched/internal/sim"
)

func j(id int, nodes int, est int64) *job.Job {
	return &job.Job{ID: job.ID(id), Nodes: nodes, Estimate: est, Runtime: est}
}

func run(id int, nodes int, start, est int64) sim.Running {
	jj := j(id, nodes, est)
	return sim.Running{Job: jj, Start: start, EstEnd: start + est}
}

// pickNext asks a production start policy for its next start decision
// over the queue q (in priority order): one PickMany call, limited to
// one job, against an index built from the slice. Nil = nothing starts.
func pickNext(s Starter, q []*job.Job, now int64, free int, running []sim.Running, machineNodes int) *job.Job {
	ix := queue.NewIndex()
	for _, jj := range q {
		ix.Push(jj)
	}
	picked := s.PickMany(ix, now, free, running, machineNodes, 1)
	if len(picked) == 0 {
		return nil
	}
	return picked[0]
}

// orderedOf copies an order policy's current priority order out of its
// index (replanning first, like any pass would).
func orderedOf(o Orderer, now int64) []*job.Job {
	return o.OrderedIter(now).AppendOrdered(nil)
}

func TestListStarterHeadOnly(t *testing.T) {
	s := NewListStarter()
	q := []*job.Job{j(0, 4, 10), j(1, 1, 10)}
	// Head fits: returned.
	if got := pickNext(s, q, 0, 4, nil, 4); got != q[0] {
		t.Errorf("head fits but not picked")
	}
	// Head does not fit: nothing starts even though job 1 would fit —
	// strict list semantics never skip the head.
	if got := pickNext(s, q, 0, 2, nil, 4); got != nil {
		t.Errorf("list starter skipped the head: %v", got)
	}
	if got := pickNext(s, nil, 0, 4, nil, 4); got != nil {
		t.Errorf("empty queue returned %v", got)
	}
}

func TestGareyGrahamSkipsBlockedHead(t *testing.T) {
	s := NewGareyGrahamStarter()
	q := []*job.Job{j(0, 4, 10), j(1, 1, 10), j(2, 2, 10)}
	// Head too wide for 2 free nodes; G&G starts the first fitting job.
	if got := pickNext(s, q, 0, 2, nil, 4); got != q[1] {
		t.Errorf("G&G picked %v, want job 1", got)
	}
	// Nothing fits.
	if got := pickNext(s, q, 0, 0, nil, 4); got != nil {
		t.Errorf("G&G picked %v with 0 free", got)
	}
}

func TestEASYStartsHeadWhenItFits(t *testing.T) {
	s := NewEASYStarter()
	q := []*job.Job{j(0, 2, 10)}
	if got := pickNext(s, q, 0, 2, nil, 4); got != q[0] {
		t.Error("EASY did not start a fitting head")
	}
}

func TestEASYBackfillBeforeShadow(t *testing.T) {
	// Machine 4. Running: 2 nodes until t=10. Head needs 4 → shadow 10.
	// A 2-node job estimated to end by 10 may backfill.
	s := NewEASYStarter()
	running := []sim.Running{run(100, 2, 0, 10)}
	head := j(0, 4, 10)
	fits := j(1, 2, 8) // now(2)+8 = 10 <= shadow 10
	q := []*job.Job{head, fits}
	if got := pickNext(s, q, 2, 2, running, 4); got != fits {
		t.Errorf("EASY refused a shadow-safe backfill, got %v", got)
	}
}

func TestEASYRefusesShadowViolation(t *testing.T) {
	// Same setup, but the candidate would run past the shadow and needs
	// more than the spare nodes.
	s := NewEASYStarter()
	running := []sim.Running{run(100, 2, 0, 10)}
	head := j(0, 4, 10) // shadow 10, spare (2+2)-4 = 0
	tooLong := j(1, 2, 9)
	q := []*job.Job{head, tooLong}
	if got := pickNext(s, q, 2, 2, running, 4); got != nil {
		t.Errorf("EASY backfilled a job delaying the head: %v", got)
	}
}

// TestEASYHugeEstimateDoesNotJumpTheHead: an estimate near MaxInt64 (the
// daemon's JobSpec.Estimate has no upper bound) used to wrap the shadow
// test `now+estimate <= shadow` negative, so the job backfilled ahead of
// a head it delays forever. Machine 10: 8 nodes busy until t=1000, head
// wants all 10 → shadow 1000, spare 0; only the overflow could admit the
// 2-node candidate.
func TestEASYHugeEstimateDoesNotJumpTheHead(t *testing.T) {
	running := []sim.Running{run(100, 8, 0, 1000)}
	head := j(0, 10, 50)
	huge := j(1, 2, math.MaxInt64-5)
	q := []*job.Job{head, huge}
	if got := pickNext(NewEASYStarter(), q, 100, 2, running, 10); got != nil {
		t.Errorf("EASY backfilled %v past the head's shadow", got)
	}
	// Same state under an announced drain (the profile-based variant).
	s := NewEASYStarter()
	s.Announce([]sim.Failure{{At: 5000, Nodes: 1, Duration: 10}})
	if got := pickNext(s, q, 100, 2, running, 10); got != nil {
		t.Errorf("drain-aware EASY backfilled %v past the head's shadow", got)
	}
	// And through the engine: the candidate must start after the head.
	jobs := []*job.Job{
		{ID: 0, Submit: 0, Nodes: 8, Estimate: 1000, Runtime: 1000},
		{ID: 1, Submit: 50, Nodes: 10, Estimate: 50, Runtime: 50},
		{ID: 2, Submit: 100, Nodes: 2, Estimate: math.MaxInt64 - 5, Runtime: 10},
	}
	alg, err := New(OrderFCFS, StartEASY, Config{MachineNodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunChecked(sim.Machine{Nodes: 10}, jobs, alg, sim.Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if hs, cs := res.Schedule.ByJobID(1).Start, res.Schedule.ByJobID(2).Start; cs < hs {
		t.Errorf("huge-estimate job started at %d, before the head at %d", cs, hs)
	}
}

func TestEASYSpareNodeBackfill(t *testing.T) {
	// Machine 5: running 3 nodes until 10; head needs 4 → shadow 10,
	// spare (2+3)-4 = 1. A 1-node job of any length may backfill.
	s := NewEASYStarter()
	running := []sim.Running{run(100, 3, 0, 10)}
	head := j(0, 4, 10)
	longThin := j(1, 1, 100000)
	q := []*job.Job{head, longThin}
	if got := pickNext(s, q, 2, 2, running, 5); got != longThin {
		t.Errorf("EASY refused a spare-node backfill, got %v", got)
	}
}

func TestEASYSkipsOversizedCandidates(t *testing.T) {
	// A candidate wider than the free nodes cannot backfill even if it
	// would finish before the shadow.
	s := NewEASYStarter()
	running := []sim.Running{run(100, 3, 0, 10)}
	head := j(0, 4, 10)
	wide := j(1, 3, 1)
	short := j(2, 1, 1)
	q := []*job.Job{head, wide, short}
	if got := pickNext(s, q, 0, 2, running, 5); got != short {
		t.Errorf("EASY picked %v, want the fitting short job", got)
	}
}

func TestEASYSingleWaitingJobNoBackfill(t *testing.T) {
	s := NewEASYStarter()
	running := []sim.Running{run(100, 3, 0, 10)}
	q := []*job.Job{j(0, 4, 10)}
	if got := pickNext(s, q, 0, 2, running, 5); got != nil {
		t.Errorf("picked %v with only a blocked head", got)
	}
}

func TestConservativeStartsHead(t *testing.T) {
	s := NewConservativeStarter(0)
	q := []*job.Job{j(0, 2, 10)}
	if got := pickNext(s, q, 0, 4, nil, 4); got != q[0] {
		t.Error("conservative did not start a fitting head")
	}
}

func TestConservativeBackfillsIntoHole(t *testing.T) {
	// Machine 4, 2 nodes busy until 10. Head needs 4 (reserved at 10).
	// A 2-node 8-second job fits the hole [2,10) exactly.
	s := NewConservativeStarter(0)
	running := []sim.Running{run(100, 2, 0, 10)}
	q := []*job.Job{j(0, 4, 100), j(1, 2, 8)}
	if got := pickNext(s, q, 2, 2, running, 4); got != q[1] {
		t.Errorf("conservative refused a hole-filling backfill, got %v", got)
	}
}

func TestConservativeRespectsEveryReservation(t *testing.T) {
	// Machine 4, 2 busy until 10. Queue: head 4n (reserved [10,110)),
	// second 2n est 8 (fits hole [2,10), reserved now → started first
	// call). A third job must not steal the hole from the second.
	s := NewConservativeStarter(0)
	running := []sim.Running{run(100, 2, 0, 10)}
	head := j(0, 4, 100)
	second := j(1, 2, 8)
	third := j(2, 2, 8)
	q := []*job.Job{head, second, third}
	// First pick: the second job (hole is its reservation).
	if got := pickNext(s, q, 2, 2, running, 4); got != second {
		t.Fatalf("first pick = %v, want job 1", got)
	}
	// Simulate job 1 started: it becomes running, hole capacity gone.
	running2 := append(running, run(1, 2, 2, 8))
	q2 := []*job.Job{head, third}
	if got := pickNext(s, q2, 2, 0, running2, 4); got != nil {
		t.Errorf("conservative started %v with zero free nodes", got)
	}
}

func TestConservativeBlockedByEarlierReservation(t *testing.T) {
	// Machine 4, 3 busy until 10. Head 2n est 5: cannot start now
	// (only 1 free), reserved [10,15). A 1-node job estimated 4 s fits
	// now and does not collide with the head's reservation.
	s := NewConservativeStarter(0)
	running := []sim.Running{run(100, 3, 0, 10)}
	head := j(0, 2, 5)
	thin := j(1, 1, 4)
	q := []*job.Job{head, thin}
	if got := pickNext(s, q, 2, 1, running, 4); got != thin {
		t.Fatalf("pick = %v, want the thin job", got)
	}
	// A 1-node job running 20 s would overlap [10,15) where free =
	// 4-3(head... ) — head reserved 2 of 4 from 10; running job ends at
	// 10 → free at [10,15) = 4-2 = 2 ≥ 1, so even the long job fits.
	long := j(2, 1, 20)
	q = []*job.Job{head, long}
	if got := pickNext(s, q, 2, 1, running, 4); got != long {
		t.Errorf("pick = %v, want the long thin job (no reservation conflict)", got)
	}
}

func TestConservativeRefusesReservationConflict(t *testing.T) {
	// Machine 4, 3 busy until 10. Head 4n est 5 → reserved [10,15).
	// A 1-node job estimated 20 s would occupy [2,22) and push the head
	// past 10 → conservative must refuse it.
	s := NewConservativeStarter(0)
	running := []sim.Running{run(100, 3, 0, 10)}
	head := j(0, 4, 5)
	long := j(1, 1, 20)
	q := []*job.Job{head, long}
	if got := pickNext(s, q, 2, 1, running, 4); got != nil {
		t.Errorf("conservative violated the head reservation with %v", got)
	}
}

func TestConservativeOutageRecheckKeepsPriorityClaim(t *testing.T) {
	// The reservation profile assumes the machine's nominal size, so an
	// injected hardware outage can make a reservation come due (t == now)
	// while the physical free count cannot host the job. The starter must
	// re-check `free` — and, crucially, still reserve the blocked job at
	// now so later queue jobs cannot jump its priority claim.
	t.Run("exact", func(t *testing.T) {
		// Machine nominally 4, nothing running, but an outage holds 2
		// nodes: free = 2. Head wants all 4 → EarliestFit says now, the
		// physical re-check refuses it.
		head := j(0, 4, 10)
		behind := j(1, 2, 5)
		q := []*job.Job{head, behind}

		if got := pickNext(NewConservativeStarter(0), q, 0, 2, nil, 4); got != nil {
			t.Fatalf("started %v during the outage, want nil (head 4n > 2 free, "+
				"behind blocked by the head's claim)", got)
		}

		// Sanity: without the head's claim the 2-node job starts at once
		// on the same outage state.
		if got := pickNext(NewConservativeStarter(0), []*job.Job{behind}, 0, 2, nil, 4); got != behind {
			t.Fatalf("pick = %v, want the 2-node job (fits the 2 free nodes)", got)
		}
	})
}

func TestConservativeOutageRecheckEndToEnd(t *testing.T) {
	// Full simulation of the outage re-check: a 2-node outage covers
	// [0,50). The 4-node head cannot physically start before the repair,
	// and the 2-node job behind it must not overtake (its backfill would
	// collide with the head's reservation).
	head := &job.Job{ID: 0, Nodes: 4, Submit: 0, Runtime: 10, Estimate: 10}
	behind := &job.Job{ID: 1, Nodes: 2, Submit: 0, Runtime: 5, Estimate: 5}
	c, err := New(OrderFCFS, StartConservative, Config{MachineNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Machine{Nodes: 4}, []*job.Job{head, behind}, c, sim.Options{
		Validate: true,
		Failures: []sim.Failure{{At: 0, Nodes: 2, Duration: 50}},
	})
	if err != nil {
		t.Fatal(err)
	}
	starts := map[job.ID]int64{}
	for _, a := range res.Schedule.Allocs {
		if !a.Aborted {
			starts[a.Job.ID] = a.Start
		}
	}
	if starts[0] != 50 {
		t.Errorf("head started at %d, want 50 (after repair)", starts[0])
	}
	if starts[1] < starts[0]+10 {
		t.Errorf("queued job started at %d, overtaking the head (head [%d,%d))",
			starts[1], starts[0], starts[0]+10)
	}
}

func TestConservativeDepthBound(t *testing.T) {
	// With depth 1 only the head is examined; a fitting job further down
	// is invisible.
	s := NewConservativeStarter(1)
	running := []sim.Running{run(100, 2, 0, 10)}
	q := []*job.Job{j(0, 4, 100), j(1, 2, 8)}
	if got := pickNext(s, q, 2, 2, running, 4); got != nil {
		t.Errorf("depth-bounded conservative returned %v", got)
	}
}

func TestConservativeEmptyAndNoFit(t *testing.T) {
	s := NewConservativeStarter(0)
	if got := pickNext(s, nil, 0, 4, nil, 4); got != nil {
		t.Error("empty queue")
	}
	q := []*job.Job{j(0, 4, 10)}
	if got := pickNext(s, q, 0, 0, nil, 4); got != nil {
		t.Error("zero free nodes")
	}
	// Fast path: nothing fits the free count.
	if got := pickNext(s, q, 0, 3, nil, 4); got != nil {
		t.Error("nothing fits but something was picked")
	}
}

func TestStarterNames(t *testing.T) {
	if NewListStarter().Name() != "List" {
		t.Error("list name")
	}
	if NewGareyGrahamStarter().Name() != "List" {
		t.Error("G&G reports the list column name")
	}
	if NewEASYStarter().Name() != "EASY-Backfilling" {
		t.Error("EASY name")
	}
	if NewConservativeStarter(0).Name() != "Backfilling" {
		t.Error("conservative name")
	}
}
