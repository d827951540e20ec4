// Quickstart: simulate one scheduling algorithm on a small randomized
// workload and print the headline metrics.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"jobsched/internal/objective"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
	"jobsched/internal/workload"
)

func main() {
	// A 256-node batch partition, as in the paper's Example 5.
	machine := sim.Machine{Nodes: 256}

	// A small randomized workload (paper Table 2 parameters).
	cfg := workload.DefaultRandomizedConfig()
	cfg.Jobs = 2000
	cfg.Seed = 7
	jobs := workload.Randomized(cfg)

	// FCFS with EASY backfilling — the production setting at the CTC,
	// and the paper's reference algorithm.
	scheduler, err := sched.New(sched.OrderFCFS, sched.StartEASY, sched.Config{MachineNodes: machine.Nodes})
	if err != nil {
		log.Fatal(err)
	}

	res, err := sim.Run(machine, jobs, scheduler, sim.Options{Validate: true})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("simulated %d jobs under %s\n", len(jobs), scheduler.Name())
	fmt.Printf("  average response time: %.0f s\n", objective.AvgResponseTime{}.Eval(res.Schedule))
	fmt.Printf("  average wait time:     %.0f s\n", objective.AvgWaitTime{}.Eval(res.Schedule))
	fmt.Printf("  makespan:              %d s\n", res.Schedule.Makespan())
	fmt.Printf("  utilization:           %.1f%%\n", objective.Utilization{}.Eval(res.Schedule)*100)
}
