package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"jobsched/internal/job"
	"jobsched/internal/profile"
	"jobsched/internal/sim"
)

// naiveConservativePick is the unoptimized reference walk: a fresh
// brute-force Reference profile (no kernel shared with production), full
// reservations. The production ConservativeStarter must make exactly the
// same decision on every input.
func naiveConservativePick(ordered []*job.Job, now int64, free int, running []sim.Running, machineNodes int) *job.Job {
	if len(ordered) == 0 || free <= 0 {
		return nil
	}
	fits := false
	for _, j := range ordered {
		if j.Nodes <= free {
			fits = true
			break
		}
	}
	if !fits {
		return nil
	}
	p := profile.NewReference(machineNodes, now)
	for _, r := range running {
		end := r.EstEnd
		if end <= now {
			end = now + 1
		}
		p.Reserve(r.Job.Nodes, now, end)
	}
	for _, j := range ordered {
		t := p.EarliestFit(j.Nodes, j.Estimate, now)
		if t == now {
			return j
		}
		end := t + j.Estimate
		if end < t {
			end = profile.Infinity
		}
		p.Reserve(j.Nodes, t, end)
	}
	return nil
}

// TestConservativeExactMatchesNaive pins the starter to the reference
// walk: identical picks on every input.
func TestConservativeExactMatchesNaive(t *testing.T) {
	s := NewConservativeStarter(0)
	if err := quickCheckPicks(s, 500); err != nil {
		t.Fatal(err)
	}
}

func quickCheckPicks(s *ConservativeStarter, samples int) error {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const nodes = 32
		// Random running set.
		var running []sim.Running
		used := 0
		now := int64(1000 + r.Intn(1000))
		for used < nodes-1 && r.Intn(3) > 0 {
			w := 1 + r.Intn(nodes-used)
			est := int64(1 + r.Intn(500))
			start := now - int64(r.Intn(int(est)))
			running = append(running, sim.Running{
				Job:   &job.Job{ID: job.ID(10000 + len(running)), Nodes: w, Estimate: est},
				Start: start, EstEnd: start + est,
			})
			used += w
		}
		free := nodes - used
		// Random queue with wildly mixed estimates.
		q := make([]*job.Job, 1+r.Intn(40))
		for i := range q {
			est := int64(1 + r.Intn(2000))
			if r.Intn(4) == 0 {
				est = int64(1 + r.Intn(10)) // very short
			}
			q[i] = &job.Job{ID: job.ID(i), Nodes: 1 + r.Intn(nodes), Estimate: est, Runtime: est}
		}
		got := pickNext(s, q, now, free, running, nodes)
		want := naiveConservativePick(q, now, free, running, nodes)
		return got == want
	}
	return quick.Check(f, &quick.Config{
		MaxCount: samples,
		Rand:     rand.New(rand.NewSource(5)), // deterministic sample
	})
}
