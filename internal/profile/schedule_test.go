package profile_test

import (
	"fmt"
	"math/rand"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/profile"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

// scheduleRun is one simulation's observable outcome: placements, start
// events and the scratch profiles' operation counts.
type scheduleRun struct {
	schedule string
	starts   []telemetry.Event
	stats    profile.Stats
}

func runCell(t *testing.T, o sched.OrderName, s sched.StartName, announced []sim.Failure,
	factory sched.ProfileFactory, jobs []*job.Job, nodes int) scheduleRun {
	t.Helper()
	var out scheduleRun
	buf := &telemetry.Buffer{}
	alg, err := sched.New(o, s, sched.Config{
		MachineNodes:   nodes,
		Hooks:          telemetry.Hooks{ProfileStats: &out.stats},
		Announced:      announced,
		ProfileFactory: factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Machine{Nodes: nodes}, job.CloneAll(jobs), alg,
		sim.Options{Validate: true, Recorder: buf})
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	for _, a := range res.Schedule.Allocs {
		out.schedule += fmt.Sprintf("%d@[%d,%d)k=%v;", a.Job.ID, a.Start, a.End, a.Killed)
	}
	for _, ev := range buf.Events() {
		if ev.Type == telemetry.EventStart {
			out.starts = append(out.starts, ev)
		}
	}
	return out
}

// blockWatch is a tiny-block Tree that records the most blocks it was
// cut into after any placement, proving the run crossed block boundaries.
type blockWatch struct {
	*profile.Tree
	most *int
}

func (w blockWatch) Reserve(nodes int, start, end int64) {
	w.Tree.Reserve(nodes, start, end)
	*w.most = max(*w.most, w.Blocks())
}

func (w blockWatch) StartMany(reqs []profile.StartReq, starts []int64) []int64 {
	starts = w.Tree.StartMany(reqs, starts)
	*w.most = max(*w.most, w.Blocks())
	return starts
}

// TestTreeModesScheduleIdentically is the whole-schedule backend gate:
// every profile-backed grid cell (conservative backfilling, and EASY
// with announced drains, under each order) runs three ways — Tree cut
// into blocks of at most two steps, Tree at its production block size,
// and the brute-force Reference — and must produce identical schedules
// and start events. At this scale the production Tree keeps every
// profile in one block, so the tiny-block row is the one that crosses
// block boundaries; its block count proves it did.
func TestTreeModesScheduleIdentically(t *testing.T) {
	const nodes = 16
	r := rand.New(rand.NewSource(11))
	jobs := make([]*job.Job, 200)
	var at int64
	for i := range jobs {
		at += int64(r.Intn(30))
		est := int64(1 + r.Intn(500))
		jobs[i] = &job.Job{ID: job.ID(i), Submit: at, Nodes: 1 + r.Intn(nodes),
			Estimate: est, Runtime: 1 + r.Int63n(est)}
	}
	drains := []sim.Failure{
		{At: 120, Nodes: nodes, Duration: 60},
		{At: 400, Nodes: nodes / 2, Duration: 100},
	}
	reference := func(n int, from int64) profile.Kernel { return profile.NewReference(n, from) }
	for _, o := range sched.GridOrders() {
		if o == sched.OrderGG {
			continue // its own start policy keeps no profile
		}
		for _, c := range []struct {
			start     sched.StartName
			announced []sim.Failure
		}{{sched.StartConservative, nil}, {sched.StartEASY, drains}} {
			name := fmt.Sprintf("%s/%s", o, c.start)
			most := 0
			tiny := runCell(t, o, c.start, c.announced, func(n int, from int64) profile.Kernel {
				return blockWatch{profile.NewTinyBlockTree(n, from), &most}
			}, jobs, nodes)
			if most < 3 {
				t.Fatalf("%s: the tiny-block run never held more than %d blocks", name, most)
			}
			for _, row := range []struct {
				name string
				run  scheduleRun
			}{
				{"default tree", runCell(t, o, c.start, c.announced, nil, jobs, nodes)},
				{"reference", runCell(t, o, c.start, c.announced, reference, jobs, nodes)},
			} {
				if row.run.schedule != tiny.schedule {
					t.Fatalf("%s: %s schedule diverged from the tiny-block tree's\n%s\nvs\n%s",
						name, row.name, row.run.schedule, tiny.schedule)
				}
				if len(row.run.starts) != len(tiny.starts) {
					t.Fatalf("%s: %s has %d start events, the tiny-block tree %d",
						name, row.name, len(row.run.starts), len(tiny.starts))
				}
				for i := range tiny.starts {
					if row.run.starts[i] != tiny.starts[i] {
						t.Fatalf("%s: %s start event %d diverged\n%+v\nvs the tiny-block tree's\n%+v",
							name, row.name, i, row.run.starts[i], tiny.starts[i])
					}
				}
			}
		}
	}
}
