package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"jobsched/internal/cli"
	"jobsched/internal/job"
	"jobsched/internal/profile"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

func benchQueue(n int) []*job.Job {
	r := rand.New(rand.NewSource(7))
	jobs := make([]*job.Job, n)
	for i := range jobs {
		est := int64(1 + r.Intn(43200))
		jobs[i] = &job.Job{
			ID: job.ID(i), Nodes: 1 + r.Intn(256),
			Estimate: est, Runtime: 1 + r.Int63n(est),
		}
	}
	return jobs
}

// BenchmarkSMARTComputePlan measures one SMART replanning pass (bins,
// shelves, Smith sort) at several queue depths.
func BenchmarkSMARTComputePlan(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("queue=%d", n), func(b *testing.B) {
			o := NewSMARTOrder(FFIA, Config{MachineNodes: 256})
			q := benchQueue(n)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = o.computePlan(q)
			}
		})
	}
}

// BenchmarkPSRSComputePlan measures one PSRS replanning pass (ratio
// sort, preemptive schedule, bin conversion).
func BenchmarkPSRSComputePlan(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("queue=%d", n), func(b *testing.B) {
			o := NewPSRSOrder(Config{MachineNodes: 256})
			q := benchQueue(n)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = o.computePlan(q)
			}
		})
	}
}

// BenchmarkEASYPick measures one EASY backfilling decision over a deep
// queue with a busy machine.
func BenchmarkEASYPick(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("queue=%d", n), func(b *testing.B) {
			s := NewEASYStarter()
			q := benchQueue(n)
			q[0].Nodes = 256 // blocked head forces the backfill scan
			running := []sim.Running{
				{Job: &job.Job{ID: 90001, Nodes: 250, Estimate: 5000}, Start: 0, EstEnd: 5000},
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = pickNext(s, q, 100, 6, running, 256)
			}
		})
	}
}

// BenchmarkConservativePick measures one conservative backfilling pass
// (full reservation rebuild) over a deep queue — the most expensive
// decision in the paper's grid.
func BenchmarkConservativePick(b *testing.B) {
	for _, n := range []int{100, 1000, 4000} {
		b.Run(fmt.Sprintf("queue=%d", n), func(b *testing.B) {
			s := NewConservativeStarter(0)
			q := benchQueue(n)
			q[0].Nodes = 256
			running := []sim.Running{
				{Job: &job.Job{ID: 90001, Nodes: 250, Estimate: 5000}, Start: 0, EstEnd: 5000},
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = pickNext(s, q, 100, 6, running, 256)
			}
		})
	}
}

// BenchmarkEngineFCFS measures raw simulator throughput (events/op) with
// the cheapest scheduler.
func BenchmarkEngineFCFS(b *testing.B) {
	jobs := benchQueue(5000)
	var at int64
	r := rand.New(rand.NewSource(9))
	for _, j := range jobs {
		at += int64(r.Intn(60))
		j.Submit = at
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		alg, err := New(OrderFCFS, StartList, Config{MachineNodes: 256})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.RunChecked(sim.Machine{Nodes: 256}, job.CloneAll(jobs), alg, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeepQueueCells runs the five cells of the repository
// benchmark's sim_backlog workload (benchmark/offline.go: 100k jobs all
// submitted at t=0, widths cycling 1..8 with a full-machine job every
// 199th, four estimate classes) one sub-benchmark per cell, so that a
// parent/change pair can be compared per cell from `go test -c` binaries.
func BenchmarkDeepQueueCells(b *testing.B) {
	const n, nodes = 100_000, 256
	jobs := make([]*job.Job, n)
	for i := range jobs {
		w := 1 + (i*7)%8
		if i%199 == 198 {
			w = nodes
		}
		jobs[i] = &job.Job{ID: job.ID(i), Nodes: w, Runtime: 60, Estimate: 60 + int64(i%4)*30}
	}
	for _, c := range []struct {
		slug  string
		order OrderName
		start StartName
		depth int
	}{
		{"FCFS-List", OrderFCFS, StartList, 0},
		{"FCFS-EASY", OrderFCFS, StartEASY, 0},
		{"PSRS-EASY", OrderPSRS, StartEASY, 0},
		{"SMART-FFIA-Backfilling4", OrderSMARTFFIA, StartConservative, 4},
		{"GareyGraham-List", OrderGG, StartList, 0},
	} {
		b.Run(c.slug, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				alg, err := New(c.order, c.start, Config{MachineNodes: nodes, MaxBackfillDepth: c.depth})
				if err != nil {
					b.Fatal(err)
				}
				run := job.CloneAll(jobs)
				b.StartTimer()
				if _, err := sim.Run(sim.Machine{Nodes: nodes}, run, alg, sim.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConservativeEarlyCompletion runs conservative backfilling over
// a 2,000-job CTC trace, whose runtimes mostly fall short of their
// estimates: most passes follow an early completion, the case the kept
// profile's repair serves. It reports the profile kernel's operations
// per run beside the time.
func BenchmarkConservativeEarlyCompletion(b *testing.B) {
	const nodes = 256
	jobs, _, err := cli.Load(cli.LoadOptions{Kind: "ctc", Jobs: 2000, MachineNodes: nodes, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range []OrderName{OrderFCFS, OrderSMARTFFIA} {
		b.Run(string(o), func(b *testing.B) {
			var stats profile.Stats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				alg, err := New(o, StartConservative, Config{MachineNodes: nodes,
					Hooks: telemetry.Hooks{ProfileStats: &stats}})
				if err != nil {
					b.Fatal(err)
				}
				run := job.CloneAll(jobs)
				b.StartTimer()
				if _, err := sim.Run(sim.Machine{Nodes: nodes}, run, alg, sim.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			n := float64(b.N)
			b.ReportMetric(float64(stats.EarliestFit)/n, "earliest_fit/op")
			b.ReportMetric(float64(stats.Reserve)/n, "reserve/op")
			b.ReportMetric(float64(stats.Release)/n, "release/op")
		})
	}
}
