package sched_test

import (
	"fmt"
	"math/rand"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/policy"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
)

// TestBatchedPassesMatchSequentialPolicy adds internal/policy's
// course-window wrapper to the equivalence gate: the four base
// algorithms policy.Sweep runs, at reserve strengths 0.5 and 1, against
// the test-only reference loop. It lives in the external test package
// because policy imports sched.
func TestBatchedPassesMatchSequentialPolicy(t *testing.T) {
	const nodes = 16
	// Sessions inside every gate workload's busy stretch, needing most of
	// the machine, so the rule refuses jobs.
	sessions := []policy.Session{{At: 400, Nodes: 12}, {At: 1200, Nodes: 12}, {At: 2500, Nodes: 12}}
	bases := []struct {
		order sched.OrderName
		start sched.StartName
	}{
		{sched.OrderFCFS, sched.StartEASY},
		{sched.OrderFCFS, sched.StartConservative},
		{sched.OrderSMARTFFIA, sched.StartEASY},
		{sched.OrderGG, sched.StartList},
	}
	for _, b := range bases {
		plain := func() (*sched.Composite, error) {
			return sched.New(b.order, b.start, sched.Config{MachineNodes: nodes})
		}
		for _, reserve := range []float64{0.5, 1} {
			wrapped := func() (*sched.Composite, error) {
				c, err := plain()
				if err != nil {
					return nil, err
				}
				return policy.WithReserve(c, sessions, reserve), nil
			}
			name := fmt.Sprintf("%s/%s+reserve(%.2f)", b.order, b.start, reserve)
			sched.CheckCompositeAgainstReference(t, name, nodes, wrapped)

			must := func(mk func() (*sched.Composite, error)) func() sim.Scheduler {
				return func() sim.Scheduler {
					c, err := mk()
					if err != nil {
						t.Fatal(err)
					}
					return c
				}
			}
			if changed, _ := sched.WorkloadsChanged(t, nodes, must(plain), must(wrapped)); changed == 0 {
				t.Errorf("%s: the course windows never refused a job; the row re-tests the plain policy", name)
			}
		}
	}
}

// TestConservativeReuseBehindPolicy runs the reuse differential
// (TestConservativeReuseMatchesRebuild) under internal/policy's
// course-window wrapper, which hides the jobs a session refuses.
func TestConservativeReuseBehindPolicy(t *testing.T) {
	const nodes = 16
	sessions := []policy.Session{{At: 400, Nodes: 12}, {At: 1200, Nodes: 12}, {At: 2500, Nodes: 12}}
	r := rand.New(rand.NewSource(8))
	var jobs []*job.Job
	var at int64
	for i := 0; i < 400; i++ {
		at += int64(r.Intn(30))
		est := int64(1 + r.Intn(500))
		jobs = append(jobs, &job.Job{ID: job.ID(i), Submit: at, Nodes: 1 + r.Intn(nodes), Estimate: est, Runtime: est})
	}
	run := func(s sim.Scheduler) string {
		res, err := sim.RunChecked(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), s, sim.Options{Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Schedule.Allocs)
	}
	plain := func() *sched.Composite {
		c, err := sched.New(sched.OrderFCFS, sched.StartConservative, sched.Config{MachineNodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, reserve := range []float64{0.5, 1} {
		c, reused := sched.WithReuseOracle(t, plain())
		if run(policy.WithReserve(c, sessions, reserve)) == run(plain()) {
			t.Errorf("reserve %.2f: the course windows never refused a job", reserve)
		}
		t.Logf("reserve %.2f: %d passes reused the kept profile", reserve, reused())
		if reused() == 0 {
			t.Errorf("reserve %.2f: no pass reused the kept profile", reserve)
		}
	}
}
