// Estimates reproduces the spirit of the paper's Table 6 / Figure 6 on a
// small workload: how much does each algorithm gain when users provide
// exact execution times instead of coarse upper limits? It sweeps the
// overestimation factor from exact (1×) to heavy (10×).
//
// Run with:
//
//	go run ./examples/estimates
package main

import (
	"fmt"
	"log"

	"jobsched/internal/job"
	"jobsched/internal/objective"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
	"jobsched/internal/trace"
	"jobsched/internal/workload"
)

func main() {
	const nodes = 256
	cfg := workload.DefaultCTCConfig()
	cfg.SpanSeconds = cfg.SpanSeconds * 4000 / int64(cfg.Jobs)
	cfg.Jobs = 4000
	cfg.Seed = 11
	base, _ := trace.FilterMaxNodes(workload.CTC(cfg), nodes)

	factors := []float64{1, 2, 5, 10}
	algorithms := []struct {
		order sched.OrderName
		start sched.StartName
	}{
		{sched.OrderFCFS, sched.StartEASY},
		{sched.OrderFCFS, sched.StartConservative},
		{sched.OrderSMARTFFIA, sched.StartEASY},
		{sched.OrderPSRS, sched.StartEASY},
	}

	fmt.Println("average response time (s) vs estimate accuracy (runtime × factor):")
	fmt.Printf("%-28s", "")
	for _, f := range factors {
		fmt.Printf("%10.0fx", f)
	}
	fmt.Println()
	for _, a := range algorithms {
		fmt.Printf("%-28s", fmt.Sprintf("%s/%s", a.order, a.start))
		for _, f := range factors {
			jobs := scale(base, f)
			alg, err := sched.New(a.order, a.start, sched.Config{MachineNodes: nodes})
			if err != nil {
				log.Fatal(err)
			}
			res, err := sim.Run(sim.Machine{Nodes: nodes}, jobs, alg, sim.Options{Validate: true})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%10.0f", objective.AvgResponseTime{}.Eval(res.Schedule))
		}
		fmt.Println()
	}
	fmt.Println("\nfactor 1 = the paper's exact-runtime experiment (Section 6.1, Table 6).")
}

func scale(base []*job.Job, f float64) []*job.Job {
	if f == 1 {
		return trace.WithExactEstimates(base)
	}
	return trace.ScaleEstimates(base, f)
}
