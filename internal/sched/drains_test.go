package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/sim"
)

// The drain-awareness tests: failure-aware starters must reserve around
// announced maintenance windows so that jobs route around the drain
// instead of starting, getting aborted, and burning a resubmit.

// fullDrain is a machine-wide maintenance window [50, 100) on 4 nodes.
var fullDrain = []sim.Failure{{At: 50, Nodes: 4, Duration: 50}}

func drainJob(id int, submit, runtime, estimate int64, nodes int) *job.Job {
	return &job.Job{ID: job.ID(id), Submit: submit, Runtime: runtime,
		Estimate: estimate, Nodes: nodes}
}

// TestConservativeRoutesAroundDrain: a 4-node job whose estimate crosses
// the announced drain must wait until the repair instead of starting at
// t=0 and being aborted mid-flight.
func TestConservativeRoutesAroundDrain(t *testing.T) {
	const nodes = 4
	jobs := []*job.Job{drainJob(1, 0, 80, 80, 4)}

	alg, err := New(OrderFCFS, StartConservative, Config{
		MachineNodes: nodes,
		Announced:    fullDrain,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), alg,
		sim.Options{Failures: fullDrain})
	if err != nil {
		t.Fatal(err)
	}
	if res.AbortedAttempts != 0 {
		t.Errorf("%d aborts, want 0 (drain was announced)", res.AbortedAttempts)
	}
	if got := res.Schedule.Allocs[0].Start; got != 100 {
		t.Errorf("job started at %d, want 100 (after the drain)", got)
	}

	// The unaware baseline shows why: without the announcement the same
	// job starts at 0 and the drain aborts it.
	alg, err = New(OrderFCFS, StartConservative, Config{MachineNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	res, err = sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), alg,
		sim.Options{Failures: fullDrain})
	if err != nil {
		t.Fatal(err)
	}
	if res.AbortedAttempts == 0 {
		t.Error("unaware conservative run saw no abort; test scenario is not exercising the drain")
	}
}

// TestEASYRoutesAroundDrain: the head is blocked until the repair at 100,
// and a short narrow job backfills at t=0 because it completes before the
// drain begins.
func TestEASYRoutesAroundDrain(t *testing.T) {
	const nodes = 4
	jobs := []*job.Job{
		drainJob(1, 0, 80, 80, 4), // head: cannot fit before the drain
		drainJob(2, 0, 40, 40, 2), // backfills: done by t=40 < 50
	}
	alg, err := New(OrderFCFS, StartEASY, Config{
		MachineNodes: nodes,
		Announced:    fullDrain,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), alg,
		sim.Options{Failures: fullDrain})
	if err != nil {
		t.Fatal(err)
	}
	if res.AbortedAttempts != 0 {
		t.Errorf("%d aborts, want 0 (drain was announced)", res.AbortedAttempts)
	}
	starts := map[job.ID]int64{}
	for _, a := range res.Schedule.Allocs {
		starts[a.Job.ID] = a.Start
	}
	if starts[1] != 100 {
		t.Errorf("head started at %d, want 100 (after the drain)", starts[1])
	}
	if starts[2] != 0 {
		t.Errorf("backfill job started at %d, want 0 (fits before the drain)", starts[2])
	}
}

// TestEASYDrainRefusesCrossingBackfill: a candidate that would still be
// running when the drain begins must not backfill even though free nodes
// and the shadow time would both allow it in a fault-free profile.
func TestEASYDrainRefusesCrossingBackfill(t *testing.T) {
	const nodes = 4
	jobs := []*job.Job{
		drainJob(1, 0, 80, 80, 4), // head blocked until 100
		drainJob(2, 0, 60, 60, 2), // would cross the drain: 0+60 > 50
	}
	alg, err := New(OrderFCFS, StartEASY, Config{
		MachineNodes: nodes,
		Announced:    fullDrain,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), alg,
		sim.Options{Failures: fullDrain})
	if err != nil {
		t.Fatal(err)
	}
	if res.AbortedAttempts != 0 {
		t.Errorf("%d aborts, want 0", res.AbortedAttempts)
	}
	for _, a := range res.Schedule.Allocs {
		if a.Job.ID == 2 && a.Start < 100 {
			t.Errorf("crossing candidate started at %d; must wait for the repair", a.Start)
		}
	}
}

// TestAnnounceEmptyKeepsDecisionsIdentical: announcing nothing (or only
// windows already in the past) must leave every start decision exactly as
// in an unannounced run — the legacy code paths stay engaged.
func TestAnnounceEmptyKeepsDecisionsIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const nodes = 16
	jobs := randomJobs(r, 200, nodes)
	for _, s := range []StartName{StartConservative, StartEASY} {
		base, err := New(OrderFCFS, s, Config{MachineNodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		announced, err := New(OrderFCFS, s, Config{MachineNodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		announced.Announce(nil)
		announced.Announce([]sim.Failure{}) // still empty

		bres, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), base, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ares, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), announced, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bres.Schedule.Allocs, ares.Schedule.Allocs) {
			t.Errorf("%s: empty Announce changed the schedule", s)
		}
	}
}

// TestAnnounceNonAwareStarterIsNoop: List scheduling and Garey&Graham do
// not implement FailureAware; Announce must be a harmless no-op and the
// engine still enforces the drain by aborting.
func TestAnnounceNonAwareStarterIsNoop(t *testing.T) {
	const nodes = 4
	jobs := []*job.Job{drainJob(1, 0, 80, 80, 4)}
	for _, o := range []OrderName{OrderFCFS, OrderGG} {
		alg, err := New(o, StartList, Config{MachineNodes: nodes, Announced: fullDrain})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), alg,
			sim.Options{Failures: fullDrain})
		if err != nil {
			t.Fatal(err)
		}
		if res.AbortedAttempts == 0 {
			t.Errorf("%s/List: expected the unannounced drain to abort the greedy start", o)
		}
		if len(res.Schedule.Allocs) == 0 ||
			res.Schedule.Allocs[len(res.Schedule.Allocs)-1].End == 0 {
			t.Errorf("%s/List: job never completed after resubmit", o)
		}
	}
}
