// Command simulate runs a single scheduling algorithm over a single
// workload and prints detailed metrics — the "one cell" view of the
// paper's evaluation grid.
//
// Usage:
//
//	simulate -order FCFS -start EASY-Backfilling -workload ctc -jobs 10000
//	simulate -order SMART-FFIA -start Backfilling -weighted -workload random
//	simulate -workload swf -in trace.swf
//	simulate -trace run.jsonl -counters   # decision trace + run counters
//	simulate -mtbf 86400 -mttr 3600 -retries 3 -backoff 60   # failure sweep
//	simulate -stream -workload swf -in huge.swf -spill allocs.jsonl
//	simulate -stream -workload stream -jobs 10000000 -load 0.7 -memstats
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"jobsched/internal/cli"
	"jobsched/internal/faults"
	"jobsched/internal/job"
	"jobsched/internal/objective"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
	"jobsched/internal/trace"
)

func main() {
	var (
		order    = flag.String("order", "FCFS", "order policy: FCFS, PSRS, SMART-FFIA, SMART-NFIW, Garey&Graham")
		start    = flag.String("start", "EASY-Backfilling", "start policy: List, Backfilling, EASY-Backfilling")
		weighted = flag.Bool("weighted", false, "use the weighted objective's scheduling weights")
		wl       = flag.String("workload", "ctc", "workload: ctc, prob, random, swf (and stream with -stream)")
		in       = flag.String("in", "", "SWF input file (workload=swf)")
		jobs     = flag.Int("jobs", 10000, "number of jobs (generated workloads)")
		nodes    = flag.Int("nodes", 256, "batch partition size")
		seed     = flag.Int64("seed", 1, "generation seed")
		exact    = flag.Bool("exact", false, "replace estimates by exact runtimes (Section 6.1)")
		traceOut = flag.String("trace", "", "write a JSONL decision trace to this file (see analyze -explain)")
		counters = flag.Bool("counters", false, "print run counters (passes, backfill, profile ops)")
		stream   = flag.Bool("stream", false, "bounded-memory streaming run: pull arrivals incrementally, keep aggregates instead of the full schedule (workload=swf or stream)")
		spill    = flag.String("spill", "", "with -stream, spill finalized allocations as JSONL to this file (see analyze -allocs)")
		load     = flag.Float64("load", 0.7, "with -stream -workload stream, target offered load of the synthetic generator")
		memstats = flag.Bool("memstats", false, "sample the heap during the run and report the peak")
		fo       = cli.AddFaultFlags(flag.CommandLine)
	)
	flag.Parse()
	weight := job.UnitWeight
	if *weighted {
		weight = job.AreaWeight
	}
	var err error
	if *stream {
		if fo.Enabled() {
			err = fmt.Errorf("fault injection needs the workload span up front; not supported with -stream")
		} else {
			err = runStream(*order, *start, weight, *wl, *in, *jobs, *nodes, *seed, *load, *spill, *counters, *memstats)
		}
	} else {
		err = run(*order, *start, weight, *wl, *in, *jobs, *nodes, *seed, *exact, *traceOut, *counters, *memstats, fo)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

// heapSampler polls the runtime's heap size in the background and
// remembers the peak — the number the streaming memory-ceiling claims
// are checked against. Sampling every few milliseconds is coarse but
// unbiased; the engine allocates steadily, not in one spike.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.sample()
			case <-s.stop:
				s.sample()
				return
			}
		}
	}()
	return s
}

func (s *heapSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		old := s.peak.Load()
		if ms.HeapAlloc <= old || s.peak.CompareAndSwap(old, ms.HeapAlloc) {
			return
		}
	}
}

// Peak stops the sampler and returns the largest observed heap size.
func (s *heapSampler) Peak() uint64 {
	close(s.stop)
	<-s.done
	return s.peak.Load()
}

// runStream is the bounded-memory path: arrivals are pulled from a
// streaming source and finalized allocations go to an aggregate
// collector (plus an optional JSONL spill) instead of being retained.
func runStream(order, start string, weight job.WeightFunc, wl, in string, n, nodes int, seed int64, load float64, spill string, counters, memstats bool) error {
	src, err := cli.OpenSource(cli.LoadOptions{
		Kind: wl, Path: in, Jobs: n, MachineNodes: nodes, Seed: seed,
	}, load)
	if err != nil {
		return err
	}
	defer src.Close()

	var hooks telemetry.Hooks
	var cnt *telemetry.Counters
	if counters {
		cnt = telemetry.NewCounters()
		// Bound the sampled series so counters stay O(1) over a 10M-job
		// run; extrema stay exact.
		cnt.SampleCap = 4096
		hooks = cnt.Hooks()
	}
	var sampler *heapSampler
	if memstats {
		sampler = startHeapSampler()
	}

	agg := &sim.Aggregates{}
	sink := sim.Sink(agg)
	var sf *os.File
	if spill != "" {
		sf, err = os.Create(spill)
		if err != nil {
			return err
		}
		defer sf.Close()
		sink = sim.MultiSink{agg, sim.NewAllocEncoder(sf)}
	}

	s, err := sched.New(sched.OrderName(order), sched.StartName(start), sched.Config{
		MachineNodes: nodes,
		Weight:       weight,
		Hooks:        hooks,
	})
	if err != nil {
		return err
	}
	started := time.Now()
	res, err := sim.RunStream(sim.Machine{Nodes: nodes}, src, s, sim.Options{
		Recorder: hooks.Recorder,
		Sink:     sink,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(started)
	if sf != nil {
		if err := sf.Close(); err != nil {
			return fmt.Errorf("writing %s: %w", spill, err)
		}
		fmt.Fprintf(os.Stderr, "simulate: allocation spill written to %s\n", spill)
	}
	if src.Removed() > 0 {
		fmt.Fprintf(os.Stderr, "simulate: skipped %d jobs wider than %d nodes\n", src.Removed(), nodes)
	}

	fmt.Printf("algorithm:                       %s\n", s.Name())
	fmt.Printf("jobs completed:                  %d (streamed)\n", agg.Completed)
	fmt.Printf("machine nodes:                   %d\n", nodes)
	fmt.Printf("average response time:           %.4g s\n", agg.AvgResponseTime())
	fmt.Printf("average weighted response time:  %.4g node-s^2\n", agg.AvgWeightedResponseTime())
	fmt.Printf("average wait time:               %.4g s\n", agg.AvgWaitTime())
	fmt.Printf("makespan:                        %d s\n", agg.Makespan)
	fmt.Printf("utilization:                     %.2f%%\n", agg.Utilization(nodes)*100)
	fmt.Printf("max queue length:                %d\n", res.MaxQueue)
	fmt.Printf("wall time:                       %s\n", elapsed.Round(time.Millisecond))
	if sampler != nil {
		fmt.Printf("peak heap (sampled):             %.1f MiB\n", float64(sampler.Peak())/(1<<20))
	}
	if cnt != nil {
		fmt.Println("\n== run counters ==")
		return cnt.Report(os.Stdout)
	}
	return nil
}

func run(order, start string, weight job.WeightFunc, wl, in string, n, nodes int, seed int64, exact bool, traceOut string, counters, memstats bool, fo *cli.FaultOptions) error {
	var sampler *heapSampler
	if memstats {
		sampler = startHeapSampler()
	}
	js, err := loadWorkload(wl, in, n, nodes, seed)
	if err != nil {
		return err
	}
	if exact {
		js = trace.WithExactEstimates(js)
	}

	// Telemetry: a JSONL trace file and/or in-process counters. Both off
	// leaves the zero Hooks — the nil-recorder fast path.
	var (
		hooks telemetry.Hooks
		cnt   *telemetry.Counters
		jl    *telemetry.JSONL
		tf    *os.File
	)
	if counters {
		cnt = telemetry.NewCounters()
		hooks = cnt.Hooks()
	}
	if traceOut != "" {
		tf, err = os.Create(traceOut)
		if err != nil {
			return err
		}
		defer tf.Close()
		jl = telemetry.NewJSONL(tf)
		hooks.Recorder = telemetry.Multi(hooks.Recorder, jl)
	}

	// Failure injection: compile the fault flags into an outage schedule
	// over the workload's span; maintenance windows are announced to the
	// scheduler so it reserves around them.
	var plan faults.Plan
	if fo.Enabled() {
		_, last := job.Span(js)
		plan, err = fo.Plan(nodes, last)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "simulate: injecting %d failures (%d announced)\n",
			len(plan.Failures), len(plan.Announced))
	}

	s, err := sched.New(sched.OrderName(order), sched.StartName(start), sched.Config{
		MachineNodes: nodes,
		Weight:       weight,
		Hooks:        hooks,
		Announced:    plan.Announced,
	})
	if err != nil {
		return err
	}
	res, err := sim.Run(sim.Machine{Nodes: nodes}, js, s, sim.Options{
		Validate: true,
		Recorder: hooks.Recorder,
		Failures: plan.Failures,
		Resubmit: fo.Resubmit(),
	})
	if err != nil {
		return err
	}
	if jl != nil {
		if err := jl.Flush(); err != nil {
			return fmt.Errorf("writing %s: %w", traceOut, err)
		}
		if err := tf.Close(); err != nil {
			return fmt.Errorf("writing %s: %w", traceOut, err)
		}
		fmt.Fprintf(os.Stderr, "simulate: decision trace written to %s\n", traceOut)
	}
	fmt.Printf("algorithm:                       %s\n", s.Name())
	fmt.Printf("jobs:                            %d\n", len(js))
	fmt.Printf("machine nodes:                   %d\n", nodes)
	fmt.Printf("average response time:           %.4g s\n", objective.AvgResponseTime{}.Eval(res.Schedule))
	fmt.Printf("average weighted response time:  %.4g node-s^2\n", objective.AvgWeightedResponseTime{}.Eval(res.Schedule))
	fmt.Printf("average wait time:               %.4g s\n", objective.AvgWaitTime{}.Eval(res.Schedule))
	fmt.Printf("makespan:                        %d s\n", res.Schedule.Makespan())
	fmt.Printf("utilization:                     %.2f%%\n", objective.Utilization{}.Eval(res.Schedule)*100)
	fmt.Printf("max queue length:                %d\n", res.MaxQueue)
	if fo.Enabled() {
		fmt.Printf("aborted attempts:                %d\n", res.AbortedAttempts)
		fmt.Printf("resubmissions:                   %d\n", res.Resubmits)
		fmt.Printf("lost jobs:                       %d\n", res.LostJobs)
	}
	if sampler != nil {
		fmt.Printf("peak heap (sampled):             %.1f MiB\n", float64(sampler.Peak())/(1<<20))
	}
	if cnt != nil {
		fmt.Println("\n== run counters ==")
		return cnt.Report(os.Stdout)
	}
	return nil
}

func loadWorkload(wl, in string, n, nodes int, seed int64) ([]*job.Job, error) {
	jobs, removed, err := cli.Load(cli.LoadOptions{
		Kind: wl, Path: in, Jobs: n, MachineNodes: nodes, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	if removed > 0 {
		fmt.Fprintf(os.Stderr, "simulate: deleted %d jobs wider than %d nodes\n", removed, nodes)
	}
	return jobs, nil
}
