// Metacomputing demonstrates advance reservations (paper Section 2:
// "some systems may also allow reservation of resources before the
// actual job submission. Such a feature is especially beneficial for
// multisite metacomputing"): a remote site co-allocates half the machine
// for fixed windows, and the local scheduler must provably keep those
// nodes free while still serving the local batch workload.
//
// Run with:
//
//	go run ./examples/metacomputing
package main

import (
	"fmt"
	"log"

	"jobsched/internal/objective"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
	"jobsched/internal/trace"
	"jobsched/internal/workload"
)

func main() {
	const nodes = 256
	cfg := workload.DefaultCTCConfig()
	cfg.SpanSeconds = cfg.SpanSeconds * 3000 / int64(cfg.Jobs)
	cfg.Jobs = 3000
	cfg.Seed = 23
	jobs, _ := trace.FilterMaxNodes(workload.CTC(cfg), nodes)

	// The remote site books half the machine for two-hour windows on
	// three consecutive days.
	var reservations []sched.AdvanceReservation
	for d := int64(1); d <= 3; d++ {
		reservations = append(reservations, sched.AdvanceReservation{
			Name:  fmt.Sprintf("co-allocation day %d", d),
			Nodes: nodes / 2,
			Start: d*86400 + 14*3600,
			End:   d*86400 + 16*3600,
		})
	}

	// The calendar wraps the start policy: every start it allows leaves
	// the reserved nodes free for each reserved window.
	cal, err := sched.NewCalendar(nodes, reservations)
	if err != nil {
		log.Fatal(err)
	}
	base, err := sched.New(sched.OrderFCFS, sched.StartEASY, sched.Config{MachineNodes: nodes})
	if err != nil {
		log.Fatal(err)
	}
	withRes := sched.WrapStarter(base, func(st sched.Starter) sched.Starter {
		return sched.NewReservedStarter(st, cal)
	})
	without, err := sched.New(sched.OrderFCFS, sched.StartEASY, sched.Config{MachineNodes: nodes})
	if err != nil {
		log.Fatal(err)
	}

	run := func(s sim.Scheduler) *sim.Schedule {
		res, err := sim.Run(sim.Machine{Nodes: nodes}, jobs, s, sim.Options{Validate: true})
		if err != nil {
			log.Fatal(err)
		}
		return res.Schedule
	}
	schedWith := run(withRes)
	schedWithout := run(without)

	fmt.Printf("local workload: %d jobs on %d nodes; %d reserved windows of %d nodes\n\n",
		len(jobs), nodes, len(reservations), nodes/2)
	fmt.Printf("%-28s %-22s %-14s\n", "", "avg response (s)", "utilization")
	report := func(label string, s *sim.Schedule) {
		fmt.Printf("%-28s %-22.0f %.1f%%\n", label,
			objective.AvgResponseTime{}.Eval(s), objective.Utilization{}.Eval(s)*100)
	}
	report("without reservations", schedWithout)
	report("honoring reservations", schedWith)

	// Verify the hard guarantee on the produced schedule.
	for _, e := range reservations {
		worst := 0
		for _, a := range schedWith.Allocs {
			if a.Start < e.End && a.End > e.Start {
				at := a.Start
				if at < e.Start {
					at = e.Start
				}
				used := 0
				for _, b := range schedWith.Allocs {
					if b.Start <= at && at < b.End {
						used += b.Job.Nodes
					}
				}
				if used > worst {
					worst = used
				}
			}
		}
		fmt.Printf("\n%s: at most %d of %d nodes used (%d reserved — guarantee held)",
			e.Name, worst, nodes, e.Nodes)
	}
	fmt.Println()
}
