// Capacity answers the paper's introductory motivation: "a good job
// scheduling system may reduce the number of MPP nodes that are required
// to process a certain amount of jobs within a given time frame". It
// finds, for each algorithm, the smallest machine that keeps the average
// response time of a fixed workload under a target — showing how a
// better scheduler buys real hardware.
//
// Run with:
//
//	go run ./examples/capacity
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

const (
	targetResponse = 3 * 3600 // 3 hours average response time
	workloadJobs   = 4000
)

func main() {
	cfg := workload.DefaultCTCConfig()
	cfg.SpanSeconds = cfg.SpanSeconds * workloadJobs / int64(cfg.Jobs)
	cfg.Jobs = workloadJobs
	cfg.Seed = 5
	base := workload.CTC(cfg)

	algorithms := []struct {
		order sched.OrderName
		start sched.StartName
	}{
		{sched.OrderFCFS, sched.StartList},
		{sched.OrderFCFS, sched.StartEASY},
		{sched.OrderSMARTFFIA, sched.StartEASY},
		{sched.OrderGG, sched.StartList},
	}

	fmt.Printf("smallest machine keeping avg response under %d h (%d CTC-like jobs):\n\n",
		targetResponse/3600, workloadJobs)
	for _, a := range algorithms {
		nodes, resp := smallestMachine(base, a.order, a.start)
		fmt.Printf("  %-28s %4d nodes (%.1f h avg response)\n",
			fmt.Sprintf("%s/%s", a.order, a.start), nodes, resp/3600)
	}
	fmt.Println("\nA better scheduling system serves the same workload on fewer nodes.")
}

// smallestMachine binary-searches the machine size meeting the target.
func smallestMachine(base []*job.Job, o sched.OrderName, s sched.StartName) (int, float64) {
	meets := func(nodes int) (bool, float64) {
		jobs, _ := trace.FilterMaxNodes(base, nodes)
		alg, err := sched.New(o, s, sched.Config{MachineNodes: nodes})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(sim.Machine{Nodes: nodes}, jobs, alg, sim.Options{Validate: true})
		if err != nil {
			log.Fatal(err)
		}
		resp := objective.AvgResponseTime{}.Eval(res.Schedule)
		return resp <= targetResponse, resp
	}
	lo, hi := 64, 1024
	_, respHi := meets(hi)
	for lo < hi {
		mid := (lo + hi) / 2
		ok, _ := meets(mid)
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	_, resp := meets(lo)
	if resp > targetResponse {
		resp = respHi
	}
	return lo, resp
}
