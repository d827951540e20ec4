// Command analyze inspects a workload (SWF file or generated) and
// optionally simulates one algorithm over it, reporting distribution
// statistics, model-fit quality, optimality gaps against theoretical
// lower bounds, and schedule time series.
//
// Usage:
//
//	analyze -in trace.swf
//	analyze -workload ctc -jobs 5000 -simulate -order SMART-FFIA -start EASY-Backfilling
//	analyze -workload random -simulate -gantt
//	analyze -explain 42 -trace run.jsonl   # why did job 42 wait? ("-" = stdin)
//	analyze -allocs allocs.jsonl           # replay a streaming spill file
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"jobsched/internal/analysis"
	"jobsched/internal/bounds"
	"jobsched/internal/cli"
	"jobsched/internal/durable"
	"jobsched/internal/job"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
	"jobsched/internal/stats"
	"jobsched/internal/telemetry"
	"jobsched/internal/workload"
)

func main() {
	var (
		in        = flag.String("in", "", "SWF input file")
		wl        = flag.String("workload", "", "generate instead: ctc, prob, random")
		n         = flag.Int("jobs", 5000, "jobs for generated workloads")
		nodes     = flag.Int("nodes", 256, "machine size")
		seed      = flag.Int64("seed", 1, "generation seed")
		simulate  = flag.Bool("simulate", false, "also simulate and analyze the schedule")
		order     = flag.String("order", "FCFS", "order policy for -simulate")
		start     = flag.String("start", "EASY-Backfilling", "start policy for -simulate")
		gantt     = flag.Bool("gantt", false, "render an ASCII Gantt chart (-simulate)")
		csvDir    = flag.String("csv", "", "write utilization/backlog series CSVs here")
		explain   = flag.Int64("explain", -1, "explain this job ID from a decision trace (-trace)")
		lost      = flag.Bool("lost", false, "summarize failure aborts and budget-exhausted jobs from a decision trace (-trace)")
		traceFile = flag.String("trace", "", "JSONL decision trace for -explain/-lost (\"-\" = stdin)")
		allocs    = flag.String("allocs", "", "replay a streaming allocation spill (simulate -stream -spill) and report its metrics (\"-\" = stdin)")
	)
	flag.Parse()
	if *allocs != "" {
		if err := runAllocs(*allocs, *nodes); err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		return
	}
	if *explain >= 0 {
		if err := runExplain(*explain, *traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		return
	}
	if *lost {
		if err := runLost(*traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*in, *wl, *n, *nodes, *seed, *simulate, *order, *start, *gantt, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}

// runExplain is the explain mode: read a decision trace (written by
// `simulate -trace` or `evaluate -trace`) and reconstruct why the job
// waited — its blocking head, the shadow times computed against it, and
// the jobs that overtook it.
func runExplain(id int64, traceFile string) error {
	events, err := readTrace(traceFile)
	if err != nil {
		return err
	}
	fmt.Printf("== job %d (trace: %d events) ==\n", id, len(events))
	return analysis.Explain(os.Stdout, events, id)
}

// readTrace loads a JSONL decision trace ("-" = stdin).
func readTrace(traceFile string) ([]telemetry.Event, error) {
	if traceFile == "" {
		return nil, fmt.Errorf("this mode needs -trace FILE (write one with `simulate -trace`)")
	}
	var r io.Reader
	if traceFile == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return telemetry.ReadJSONL(r)
}

// runAllocs replays an allocation spill file (one sim.AllocRecord per
// line, written by `simulate -stream -spill`) through the aggregate
// collector — the bounded-memory run's metrics, recomputed offline.
func runAllocs(path string, nodes int) error {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	agg := &sim.Aggregates{}
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec sim.AllocRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("%s: line %d: %w", path, line, err)
		}
		if err := agg.Emit(rec.Allocation()); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Printf("== allocation spill (%d records) ==\n", agg.Jobs)
	fmt.Printf("completed jobs:             %d (%d killed at estimate, %d aborted attempts)\n",
		agg.Completed, agg.Killed, agg.AbortedAttempts)
	fmt.Printf("avg response time:          %.4g s\n", agg.AvgResponseTime())
	fmt.Printf("avg weighted response time: %.4g node-s^2\n", agg.AvgWeightedResponseTime())
	fmt.Printf("avg wait time:              %.4g s\n", agg.AvgWaitTime())
	fmt.Printf("makespan:                   %d s\n", agg.Makespan)
	fmt.Printf("utilization (%d nodes):    %.2f%%\n", nodes, agg.Utilization(nodes)*100)
	return nil
}

// runLost is the failure-accounting mode: read a decision trace and
// summarize aborts, resubmissions and budget-exhausted (lost) jobs.
func runLost(traceFile string) error {
	events, err := readTrace(traceFile)
	if err != nil {
		return err
	}
	return analysis.LostReport(os.Stdout, events)
}

func run(in, wl string, n, nodes int, seed int64, simulate bool, order, start string, gantt bool, csvDir string) error {
	jobs, err := load(in, wl, n, nodes, seed)
	if err != nil {
		return err
	}
	fmt.Println("== workload ==")
	if err := analysis.WorkloadReport(os.Stdout, jobs, nodes); err != nil {
		return err
	}

	// Model-fit diagnostics (Section 6.2 verification).
	if m, err := workload.FitModel(jobs, nil); err == nil {
		sorted := job.SortBySubmit(job.CloneAll(jobs))
		inter := make([]float64, 0, len(sorted)-1)
		for i := 1; i < len(sorted); i++ {
			d := float64(sorted[i].Submit - sorted[i-1].Submit)
			if d < 1 {
				d = 1
			}
			inter = append(inter, d)
		}
		fmt.Printf("weibull fit:     k=%.3f λ=%.1f (interarrival KS distance %.4f)\n",
			m.Interarrival.K, m.Interarrival.Lambda,
			stats.KSAgainstCDF(inter, m.Interarrival.CDF))
	}

	// Theoretical lower bounds (Section 2.3).
	fmt.Println("\n== lower bounds (any non-preemptive schedule) ==")
	fmt.Printf("makespan:                   >= %d s\n", bounds.Makespan(jobs, nodes))
	lbResp := bounds.AvgResponseTime(jobs, nodes)
	fmt.Printf("avg response time:          >= %.4g s\n", lbResp)
	fmt.Printf("avg weighted response time: >= %.4g node-s^2\n",
		bounds.AvgWeightedResponseTime(jobs, nodes))

	if !simulate {
		return nil
	}
	alg, err := sched.New(sched.OrderName(order), sched.StartName(start), sched.Config{MachineNodes: nodes})
	if err != nil {
		return err
	}
	res, err := sim.Run(sim.Machine{Nodes: nodes}, jobs, alg, sim.Options{Validate: true})
	if err != nil {
		return err
	}
	agg := res.Schedule.Aggregates()
	fmt.Printf("\n== schedule (%s) ==\n", alg.Name())
	fmt.Printf("avg response time:  %.4g s (gap vs bound: %.1f%%)\n",
		agg.AvgResponseTime(), bounds.Gap(agg.AvgResponseTime(), lbResp)*100)
	fmt.Printf("makespan:           %d s\n", agg.Makespan)
	fmt.Printf("utilization:        %.1f%%\n", agg.Utilization(nodes)*100)
	util := analysis.UtilizationSeries(res.Schedule)
	backlog := analysis.BacklogSeries(res.Schedule)
	fmt.Printf("peak backlog:       %.0f jobs\n", analysis.MaxValue(backlog))
	fmt.Printf("mean utilization:   %.1f%% (time-weighted)\n", analysis.MeanValue(util)*100)

	if csvDir != "" {
		for _, series := range []struct {
			name    string
			samples []analysis.Sample
		}{{"utilization", util}, {"backlog", backlog}} {
			err := durable.ReplaceFile(fmt.Sprintf("%s/%s.csv", csvDir, series.name), func(w *bufio.Writer) error {
				return analysis.SeriesCSV(w, series.name, series.samples)
			})
			if err != nil {
				return err
			}
		}
		fmt.Printf("(series written to %s)\n", csvDir)
	}
	if gantt {
		fmt.Println()
		return analysis.Gantt(os.Stdout, res.Schedule, analysis.GanttConfig{})
	}
	return nil
}

func load(in, wl string, n, nodes int, seed int64) ([]*job.Job, error) {
	kind := wl
	if in != "" {
		kind = "swf"
	}
	if kind == "" {
		return nil, fmt.Errorf("need -in or -workload")
	}
	jobs, _, err := cli.Load(cli.LoadOptions{
		Kind: kind, Path: in, Jobs: n, MachineNodes: nodes, Seed: seed,
	})
	return jobs, err
}
