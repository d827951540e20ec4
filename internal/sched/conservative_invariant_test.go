package sched

import (
	"math/rand"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/profile"
	"jobsched/internal/sim"
)

// reservations computes each queued job's projected start under
// conservative semantics: walk the order, give every job the earliest
// fit, reserve it. Mirrors ConservativeStarter's internal walk.
func reservations(ordered []*job.Job, now int64, running []sim.Running, m int) map[job.ID]int64 {
	p := profile.New(m, now)
	for _, r := range running {
		end := r.EstEnd
		if end <= now {
			end = now + 1
		}
		p.Reserve(r.Job.Nodes, now, end)
	}
	out := make(map[job.ID]int64, len(ordered))
	for _, jj := range ordered {
		t := p.EarliestFit(jj.Nodes, jj.Estimate, now)
		out[jj.ID] = t
		end := t + jj.Estimate
		if end < t {
			end = profile.Infinity
		}
		p.Reserve(jj.Nodes, t, end)
	}
	return out
}

// conservativeAsserter checks the conservative starter's defining
// invariant at every decision (see observedStarter): starting the picked
// job must not delay the projected start of any job ahead of it in the
// priority order ("conservative backfill will not increase the projected
// completion time of a job submitted before the job used for
// backfilling").
type conservativeAsserter struct {
	t         *testing.T
	backfills int
}

func (s *conservativeAsserter) observe(ordered []*job.Job, picked *job.Job, now int64, free int, running []sim.Running, m int) {
	if picked == ordered[0] {
		return
	}
	// Projected starts of the jobs ahead of the picked one, before and
	// after the pick (picked treated as running afterwards).
	var ahead []*job.Job
	for _, jj := range ordered {
		if jj == picked {
			break
		}
		ahead = append(ahead, jj)
	}
	before := reservations(ordered, now, running, m)
	after := reservations(ahead, now,
		append(append([]sim.Running(nil), running...),
			sim.Running{Job: picked, Start: now, EstEnd: now + picked.Estimate}), m)
	s.backfills++
	for _, jj := range ahead {
		if after[jj.ID] > before[jj.ID] {
			s.t.Errorf("backfill of %v at t=%d delayed projected start of %v: %d → %d",
				picked, now, jj, before[jj.ID], after[jj.ID])
		}
	}
}

// asserting wraps the exact conservative starter with the checker.
func (s *conservativeAsserter) asserting() Starter {
	return &observedStarter{inner: NewConservativeStarter(0), observe: s.observe}
}

func TestConservativeBackfillNeverDelaysEarlierJobs(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const nodes = 8
	jobs := randomJobs(r, 400, nodes)
	wrapper := &conservativeAsserter{t: t}
	alg := Compose(NewFCFSOrder("FCFS"), wrapper.asserting(), nodes)
	if _, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), alg,
		sim.Options{Validate: true}); err != nil {
		t.Fatal(err)
	}
	if wrapper.backfills == 0 {
		t.Fatal("no backfills exercised")
	}
	t.Logf("checked %d backfill decisions", wrapper.backfills)
}

// TestConservativeBackfillInvariantUnderSMARTOrder repeats the invariant
// check with a reordering policy (the paper applies conservative
// backfilling to SMART/PSRS orders too).
func TestConservativeBackfillInvariantUnderSMARTOrder(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	const nodes = 8
	jobs := randomJobs(r, 300, nodes)
	wrapper := &conservativeAsserter{t: t}
	alg := Compose(NewSMARTOrder(FFIA, Config{MachineNodes: nodes}.withDefaults()), wrapper.asserting(), nodes)
	if _, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), alg,
		sim.Options{Validate: true}); err != nil {
		t.Fatal(err)
	}
	t.Logf("checked %d backfill decisions", wrapper.backfills)
}
