package queue_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/queue"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

// scheduleRun is one simulation's observable outcome: placements, start
// events and the queue index's operation counts.
type scheduleRun struct {
	schedule string
	starts   []telemetry.Event
	stats    queue.Stats
}

func runCell(t *testing.T, mk func(sched.Config) (*sched.Composite, error), jobs []*job.Job, nodes int) scheduleRun {
	t.Helper()
	var out scheduleRun
	buf := &telemetry.Buffer{}
	alg, err := mk(sched.Config{MachineNodes: nodes, Hooks: telemetry.Hooks{QueueStats: &out.stats}})
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

// TestQueueModesScheduleIdentically is the whole-schedule gate of the
// queue index's two modes: FCFS/EASY, PSRS/EASY, SMART-FFIA/Backfilling,
// Garey&Graham/List and FCFS/EASY behind a ReservedStarter each run
// three ways — the index forced onto the tree from the first push, the
// default small-mode budget, and a budget no queue reaches — and must
// produce identical schedules and start events (Depth included) and
// identical operation counts apart from Grows. The backlog is deeper
// than the default budget, so the default row promotes and the
// never-promoted row runs small mode past the budget; their Grows counts
// prove both.
func TestQueueModesScheduleIdentically(t *testing.T) {
	const nodes = 16
	r := rand.New(rand.NewSource(5))
	jobs := make([]*job.Job, 450)
	var at int64
	for i := range jobs {
		at += int64(r.Intn(3))
		est := int64(1 + r.Intn(400))
		jobs[i] = &job.Job{ID: job.ID(i + 1), Submit: at, Nodes: 1 + r.Intn(nodes),
			Estimate: est, Runtime: 1 + r.Int63n(est)}
	}
	// Stragglers carry the clock past the reserved windows: those are
	// announced, not injected, so no other event would wake the scheduler
	// after them.
	for at := int64(1000); at <= 1400; at += 100 {
		jobs = append(jobs, &job.Job{ID: job.ID(len(jobs) + 1), Submit: at, Nodes: 1, Estimate: 10, Runtime: 10})
	}
	cal, err := sched.NewCalendar(nodes, []sched.AdvanceReservation{
		{Name: "half", Nodes: nodes / 2, Start: 150, End: 450},
		{Name: "all", Nodes: nodes, Start: 900, End: 1100},
	})
	if err != nil {
		t.Fatal(err)
	}
	cell := func(o sched.OrderName, s sched.StartName) func(sched.Config) (*sched.Composite, error) {
		return func(cfg sched.Config) (*sched.Composite, error) { return sched.New(o, s, cfg) }
	}
	cells := []struct {
		name string
		mk   func(sched.Config) (*sched.Composite, error)
	}{
		{"FCFS/EASY", cell(sched.OrderFCFS, sched.StartEASY)},
		{"PSRS/EASY", cell(sched.OrderPSRS, sched.StartEASY)},
		{"SMART-FFIA/Backfilling", cell(sched.OrderSMARTFFIA, sched.StartConservative)},
		{"Garey&Graham/List", cell(sched.OrderGG, sched.StartList)},
		{"FCFS/EASY+reservations", func(cfg sched.Config) (*sched.Composite, error) {
			c, err := sched.New(sched.OrderFCFS, sched.StartEASY, cfg)
			if err != nil {
				return nil, err
			}
			return sched.WrapStarter(c, func(st sched.Starter) sched.Starter {
				return sched.NewReservedStarter(st, cal)
			}), nil
		}},
	}
	for _, c := range cells {
		run := func(limit int) scheduleRun {
			defer queue.SetIndexSmallLimit(limit)()
			return runCell(t, c.mk, jobs, nodes)
		}
		tree := run(0)
		rows := []struct {
			name string
			run  scheduleRun
		}{
			{"default budget", run(queue.DefaultIndexSmallLimit)},
			{"never promoted", run(math.MaxInt)},
		}
		if g := rows[0].run.stats.Grows; g == 0 {
			t.Fatalf("%s: the queue never outgrew the default budget of %d slots", c.name, queue.DefaultIndexSmallLimit)
		}
		if g := rows[1].run.stats.Grows; g != 0 {
			t.Fatalf("%s: the never-promoted run grew a tree %d times", c.name, g)
		}
		for _, row := range rows {
			if row.run.schedule != tree.schedule {
				t.Fatalf("%s: %s schedule diverged from the tree's\n%s\nvs\n%s",
					c.name, row.name, row.run.schedule, tree.schedule)
			}
			if len(row.run.starts) != len(tree.starts) {
				t.Fatalf("%s: %s has %d start events, the tree %d",
					c.name, row.name, len(row.run.starts), len(tree.starts))
			}
			for i := range tree.starts {
				if row.run.starts[i] != tree.starts[i] {
					t.Fatalf("%s: %s start event %d diverged\n%+v\nvs the tree's\n%+v",
						c.name, row.name, i, row.run.starts[i], tree.starts[i])
				}
			}
			got, want := row.run.stats, tree.stats
			got.Grows, want.Grows = 0, 0
			if got != want {
				t.Fatalf("%s: %s counts %v, the tree's %v", c.name, row.name, &got, &want)
			}
		}
	}
}

// TestDuplicateWaitingIDRefused pins the engine's uniqueness check on the
// queue index's refusal of a second waiting job with a queued ID, for a
// plain order (FCFS) and a replanned one (PSRS), on a queue below the
// small-mode budget and on one past it. A machine-wide job runs first so
// that everything behind it waits.
func TestDuplicateWaitingIDRefused(t *testing.T) {
	const nodes = 8
	for _, o := range []sched.OrderName{sched.OrderFCFS, sched.OrderPSRS} {
		for _, waiting := range []int{10, queue.DefaultIndexSmallLimit + 50} {
			jobs := []*job.Job{{ID: 1, Submit: 0, Nodes: nodes, Estimate: 1000, Runtime: 1000}}
			for i := 0; i < waiting; i++ {
				jobs = append(jobs, &job.Job{ID: job.ID(i + 2), Submit: 1, Nodes: 1 + i%nodes, Estimate: 10, Runtime: 10})
			}
			dupID := jobs[waiting/2+1].ID
			jobs = append(jobs, &job.Job{ID: dupID, Submit: 2, Nodes: 1, Estimate: 10, Runtime: 10})
			var stats queue.Stats
			alg, err := sched.New(o, sched.StartEASY, sched.Config{MachineNodes: nodes,
				Hooks: telemetry.Hooks{QueueStats: &stats}})
			if err != nil {
				t.Fatal(err)
			}
			_, err = sim.Run(sim.Machine{Nodes: nodes}, jobs, alg, sim.Options{})
			name := fmt.Sprintf("%s with %d waiting", o, waiting)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("job ID %d submitted at 2 is already waiting", dupID)) {
				t.Fatalf("%s: err = %v, want the already-waiting refusal of ID %d", name, err, dupID)
			}
			if promoted := stats.Grows > 0; promoted != (waiting > queue.DefaultIndexSmallLimit) {
				t.Fatalf("%s: promoted = %v", name, promoted)
			}
		}
	}
}
