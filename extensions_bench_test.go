package jobsched

import (
	"fmt"
	"testing"

	"jobsched/internal/bounds"
	"jobsched/internal/gang"
	"jobsched/internal/job"
	"jobsched/internal/moldable"
	"jobsched/internal/objective"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
)

// BenchmarkExtensionGangScheduling measures the gang-scheduling
// counterfactual (paper reference [15]): average response time of FCFS
// on the Example 5 machine if it *did* support time sharing, for
// increasing time-sharing degrees. Level 1 is the paper's batch machine.
func BenchmarkExtensionGangScheduling(b *testing.B) {
	loadBenchWorkloads(b)
	for _, levels := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("levels=%d", levels), func(b *testing.B) {
			cfg := gang.Config{Nodes: 256, MaxLevels: levels, Overhead: 0.05}
			for i := 0; i < b.N; i++ {
				res, err := gang.Simulate(cfg, job.CloneAll(benchCTC))
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.AvgResponseTime(), "avg-response-s")
				}
			}
		})
	}
}

// BenchmarkExtensionCombinedPolicy measures the day/night switching
// scheduler the paper's administrator leaves as her final step, against
// the pure day and night picks, on the daytime objective.
func BenchmarkExtensionCombinedPolicy(b *testing.B) {
	loadBenchWorkloads(b)
	dayMetric := objective.WindowedAvgResponseTime{W: objective.PrimeTime}
	mk := map[string]func() (sim.Scheduler, error){
		"day-only": func() (sim.Scheduler, error) {
			return sched.New(sched.OrderSMARTFFIA, sched.StartEASY,
				sched.Config{MachineNodes: 256})
		},
		"night-only": func() (sim.Scheduler, error) {
			return sched.New(sched.OrderGG, sched.StartList,
				sched.Config{MachineNodes: 256, Weight: job.AreaWeight})
		},
		"switching": func() (sim.Scheduler, error) {
			return sched.NewSwitching(objective.PrimeTime,
				sched.OrderSMARTFFIA, sched.StartEASY,
				sched.OrderGG, sched.StartList,
				sched.Config{MachineNodes: 256})
		},
	}
	for _, name := range []string{"day-only", "night-only", "switching"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alg, err := mk[name]()
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(sim.Machine{Nodes: 256}, job.CloneAll(benchCTC),
					alg, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(dayMetric.Eval(res.Schedule), "day-avg-response-s")
				}
			}
		})
	}
}

// BenchmarkExtensionOptimalityGap reports each algorithm's gap to the
// theoretical average-response lower bound (Section 2.3's "estimate for
// a potential improvement of the schedule by switching to a different
// algorithm").
func BenchmarkExtensionOptimalityGap(b *testing.B) {
	loadBenchWorkloads(b)
	lb := bounds.AvgResponseTime(benchCTC, 256)
	cells := []struct {
		o sched.OrderName
		s sched.StartName
	}{
		{sched.OrderFCFS, sched.StartEASY},
		{sched.OrderSMARTFFIA, sched.StartEASY},
		{sched.OrderGG, sched.StartList},
	}
	for _, c := range cells {
		b.Run(fmt.Sprintf("%s", c.o), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := runCell(b, benchCTC, sched.Config{MachineNodes: 256}, c.o, c.s)
				if i == 0 {
					b.ReportMetric(bounds.Gap(v, lb)*100, "gap-vs-bound-pct")
				}
			}
		})
	}
}

// BenchmarkExtensionAdaptivePartitioning measures the Example 3
// counterfactual: the CTC workload remolded into moldable jobs and
// scheduled with adaptive partitioning, against the rigid FCFS control
// arm, for each width policy.
func BenchmarkExtensionAdaptivePartitioning(b *testing.B) {
	loadBenchWorkloads(b)
	for _, policy := range []moldable.WidthPolicy{moldable.Requested, moldable.Greedy, moldable.EfficiencyCap} {
		b.Run(policy.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := moldable.FromRigid(benchCTC, 256, 2, 0.005, 0.2, 9)
				if err != nil {
					b.Fatal(err)
				}
				alg := moldable.NewAdaptive(w, policy, 256)
				res, err := sim.Run(sim.Machine{Nodes: 256}, w.Jobs, alg, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					var sum float64
					for _, a := range res.Schedule.Allocs {
						sum += float64(a.End - a.Job.Submit)
					}
					b.ReportMetric(sum/float64(len(res.Schedule.Allocs)), "avg-response-s")
				}
			}
		})
	}
}

// BenchmarkExtensionNativePSRS compares the unmodified preemptive PSRS
// (on a machine with time sharing, its design target) against the
// paper's non-preemptive adaptation with EASY backfilling on the batch
// machine — quantifying what the Section 5.5 modification costs or buys.
func BenchmarkExtensionNativePSRS(b *testing.B) {
	loadBenchWorkloads(b)
	b.Run("native-preemptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := gang.SimulatePSRS(gang.PSRSConfig{Nodes: 256}, job.CloneAll(benchCTC))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(res.AvgResponseTime(), "avg-response-s")
			}
		}
	})
	b.Run("modified-easy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := runCell(b, benchCTC, sched.Config{MachineNodes: 256},
				sched.OrderPSRS, sched.StartEASY)
			if i == 0 {
				b.ReportMetric(v, "avg-response-s")
			}
		}
	})
}

// BenchmarkExtensionFailureInjection measures each algorithm's
// sensitivity to hardware outages (Section 2's "sudden failure of a
// hardware component"): a weekly 64-node outage of two hours is injected
// into the CTC workload.
func BenchmarkExtensionFailureInjection(b *testing.B) {
	loadBenchWorkloads(b)
	_, last := job.Span(benchCTC)
	var failures []sim.Failure
	for at := int64(4 * 86400); at < last; at += 7 * 86400 {
		failures = append(failures, sim.Failure{At: at, Nodes: 64, Duration: 7200})
	}
	cells := []struct {
		o sched.OrderName
		s sched.StartName
	}{
		{sched.OrderFCFS, sched.StartEASY},
		{sched.OrderSMARTFFIA, sched.StartEASY},
		{sched.OrderGG, sched.StartList},
	}
	for _, c := range cells {
		b.Run(string(c.o), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alg, err := sched.New(c.o, c.s, sched.Config{MachineNodes: 256})
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(sim.Machine{Nodes: 256}, job.CloneAll(benchCTC), alg,
					sim.Options{Failures: failures})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(objective.AvgResponseTime{}.Eval(res.Schedule), "avg-response-s")
					b.ReportMetric(float64(res.AbortedAttempts), "aborted-attempts")
				}
			}
		})
	}
}
