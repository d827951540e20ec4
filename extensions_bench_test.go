package jobsched

import (
	"fmt"
	"testing"

	"jobsched/internal/bounds"
	"jobsched/internal/job"
	"jobsched/internal/objective"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
)

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
