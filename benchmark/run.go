package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"
)

// sizes fixes how much work each workload does. Work is the same on
// every commit and every machine; only the number of measured rounds
// follows -seconds.
type sizes struct {
	label string // key of the committed expect values

	streamJobs  int // sim_stream
	backlogJobs int // sim_backlog
	ctcJobs     int // grid_ctc
	minRounds   int // measured rounds, at least
	setups      int // how often an offline set-up is repeated for its median

	historyJobs  int // serve_*: jobs completed before measuring (DoneHistory plateau)
	backlogQueue int // serve_backlog: jobs queued before measuring
	windows      int // serve_*: measured windows
	serveSetups  int // how often a daemon set-up is repeated
	ladderOps    int // traced serve_*: operations replayed per rung
	ladderDeep   int // the same on the serve_backlog state, where one costs ~10x
}

// fullSizes is the benchmark proper. sim_stream runs 1 000 000 jobs, not
// the 2 000 000 of the issue's sizing probe: six rounds of the larger
// stream alone would take the whole per-run time budget.
var fullSizes = sizes{
	label:      "full",
	streamJobs: 1_000_000, backlogJobs: 100_000, ctcJobs: 8_000,
	minRounds: 5, setups: 15,
	historyJobs: 10_000, backlogQueue: 20_000, windows: 4, serveSetups: 3,
	ladderOps: 512, ladderDeep: 128,
}

// smokeSizes exercise every code path in a few seconds for go test.
var smokeSizes = sizes{
	label:      "smoke",
	streamJobs: 20_000, backlogJobs: 2_000, ctcJobs: 300,
	minRounds: 2, setups: 2,
	historyJobs: 300, backlogQueue: 600, windows: 2, serveSetups: 1,
	ladderOps: 24, ladderDeep: 12,
}

// outcome holds the results a workload computed, as strings, so that
// equality is exact. They must be identical in every round, and for
// seed 1 equal to the committed expect values.
type outcome map[string]string

// diff lists the keys both outcomes have with different values.
func (o outcome) diff(other outcome) []string {
	var bad []string
	for k, v := range o {
		if w, ok := other[k]; ok && w != v {
			bad = append(bad, fmt.Sprintf("%s: %s != %s", k, v, w))
		}
	}
	sort.Strings(bad)
	return bad
}

// run is one execution of one workload.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	updating bool // -update-expect: the expect values are being recorded, not checked
	sz       sizes
	expect   map[string]outcome // by "<workload>/<size label>"
	work     *workArea
	workDir  string // scratch directory of this run, inside the work area
	traceOut string
	log      io.Writer

	tr          *tracer
	roundSpan   int
	op          int64
	inputDigest string
	// traced serve runs: time inside replayed operations, and time spent
	// recording their spans
	replayNS, spanNS int64
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "  ["+r.workload+"] "+format+"\n", args...)
}

// result is what a run reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Input     string             `json:"input"`
	Outcome   outcome            `json:"outcome,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	// Detail holds what the untraced run measured beyond the end-to-end
	// metrics of BENCHMARK.json (per-workload times a user sees, such as
	// recover_s); the traced run reports the same names as layer metrics.
	Detail map[string]summary `json:"detail,omitempty"`

	pooled int // runs merged into this result by -runs
}

func (res *result) fail(format string, args ...any) {
	res.Correct = false
	res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
}

// checkOutcome applies the offline output checks: every round equal,
// and for the seed the expect values were recorded with, equal to them.
func (r *run) checkOutcome(res *result, rounds []outcome) {
	res.Attempted += int64(len(rounds))
	for i := 1; i < len(rounds); i++ {
		if bad := rounds[0].diff(rounds[i]); len(bad) > 0 {
			res.Failed++
			res.fail("round %d differs from round 0: %s", i, strings.Join(bad, "; "))
		}
	}
	if r.seed != 1 || r.updating {
		return
	}
	want, ok := r.expect[r.workload+"/"+r.sz.label]
	if !ok {
		res.fail("no expect values for %s/%s", r.workload, r.sz.label)
		return
	}
	for i, o := range rounds {
		if bad := o.diff(want); len(bad) > 0 {
			res.Failed++
			res.fail("round %d differs from the expect values: %s", i, strings.Join(bad, "; "))
			return
		}
	}
}

func offlineFor(name string) offlineWorkload {
	switch name {
	case "sim_stream":
		return &simStream{}
	case "sim_backlog":
		return &simBacklog{}
	case "grid_ctc":
		return &gridCTC{}
	}
	return nil
}

// runOffline measures one simulator workload: repeated set-ups, one
// warm-up round, then rounds on identical input until -seconds are
// spent (never fewer than sizes.minRounds).
func (r *run) runOffline(w offlineWorkload) (*result, error) {
	res := &result{Workload: r.workload, Seed: r.seed, Correct: true, Metrics: map[string]summary{}, Detail: map[string]summary{}}
	var setupS []float64
	for i := 0; i < r.sz.setups; i++ {
		// These set-ups take milliseconds and mostly allocate: start each
		// from a collected heap, or the collector's phase decides the time.
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(r); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	res.Input = r.inputDigest

	warm, err := w.round(r, nil, true)
	if err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	outcomes := []outcome{warm.outcome}
	rounds := r.sz.minRounds
	if n := int(r.seconds / warm.seconds); n > rounds {
		rounds = n
	}
	r.logf("warm-up round %.3fs, measuring %d rounds", warm.seconds, rounds)

	var perS, roundMS, heapMB, cpuMS []float64
	cells := map[string][]float64{}
	for i := 0; i < rounds; i++ {
		stopHeap := heapWatch()
		cpu0 := selfCPU()
		out, err := w.round(r, nil, false)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		cpu := selfCPU() - cpu0
		heapMB = append(heapMB, stopHeap())
		perS = append(perS, float64(out.jobs)/out.seconds)
		roundMS = append(roundMS, out.seconds*1e3)
		cpuMS = append(cpuMS, cpu.Seconds()*1e3/(float64(out.jobs)/1e3))
		for k, v := range out.cells {
			cells[k] = append(cells[k], v)
		}
		outcomes = append(outcomes, out.outcome)
	}
	r.checkOutcome(res, outcomes)
	res.Outcome = outcomes[0]

	res.Metrics["setup_s"] = summarize(setupS)
	res.Metrics["jobs_per_s"] = summarize(perS)
	res.Metrics["peak_mem_mb"] = summarize(heapMB)
	res.Metrics["cpu_ms_per_kjob"] = summarize(cpuMS)
	res.Detail["round_ms"] = summarize(roundMS)
	for k, v := range cells {
		res.Detail["cell_s."+k] = summarize(v)
	}
	return res, nil
}

// traceOffline is the separate traced run: a plain round for the
// overhead base, a round with the timing decorators and the layers'
// counters installed, and a round with the counters alone. The counters
// of the last two must agree exactly.
func (r *run) traceOffline(w offlineWorkload) (*result, error) {
	res := &result{Workload: r.workload, Seed: r.seed, Traced: true, Correct: true, Metrics: map[string]summary{}}
	m := map[string]float64{}
	r.tr = newTracer()
	root := r.tr.begin(r.workload, 0, 0)

	sp := r.tr.begin("setup", root, 0)
	if err := w.setup(r); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.tr.end(sp)
	res.Input = r.inputDigest

	round := func(name string, in *instr) (roundOut, error) {
		r.op++
		r.roundSpan = r.tr.begin(name, root, r.op)
		out, err := w.round(r, in, false)
		r.tr.end(r.roundSpan)
		if err != nil {
			return out, fmt.Errorf("%s: %w", name, err)
		}
		return out, nil
	}
	m0 := mallocs()
	plain, err := round("round.plain", nil)
	if err != nil {
		return nil, err
	}
	m["sim.allocs_per_job"] = float64(mallocs()-m0) / float64(plain.jobs)
	timedIn, countIn := &instr{timed: true}, &instr{}
	timed, err := round("round.timed", timedIn)
	if err != nil {
		return nil, err
	}
	counted, err := round("round.counted", countIn)
	if err != nil {
		return nil, err
	}
	r.checkOutcome(res, []outcome{plain.outcome, timed.outcome, counted.outcome})
	res.Outcome = plain.outcome

	// Exactness guard.
	a, b := timedIn.counters(), countIn.counters()
	res.Attempted++
	for k, v := range b {
		m[k] = float64(v)
		if a[k] != v {
			res.Failed++
			res.fail("counter %s is %d with the decorators and %d without", k, a[k], v)
		}
	}

	lt := &timedIn.lt
	jobs := float64(plain.jobs)
	m["workload.stream.next_ns"] = lt.next.medianNS()
	m["sim.sink.emit_ns"] = lt.emit.medianNS()
	m["sched.startable_ns"] = lt.startable.medianNS()
	m["sched.submit_ns"] = lt.submit.medianNS()
	m["sched.finish_ns"] = lt.finish.medianNS()
	m["sched.calls.startable"] = float64(lt.startable.count)
	if n := lt.startable.count; n > 0 {
		m["sched.starts_per_pass"] = float64(lt.starts) / float64(n)
	}
	engineNS, schedNS, kernelNS := lt.selfTimes(timed.seconds*1e9, calibrateTimers())
	m["sim.engine.self_ns_per_job"] = engineNS / jobs
	m["sched.self_ns_per_job"] = schedNS / jobs
	m["profile.kernel_ns_per_job"] = kernelNS / jobs
	m["benchmark.trace.overhead_share"] = timed.seconds/plain.seconds - 1

	if g, ok := w.(*gridCTC); ok {
		for k, v := range plain.cells {
			m["eval.cell_s."+k] = v
		}
		// The decorated round drives sim.Run itself, so its base is the
		// counters-only round that does the same, not eval.Run's.
		m["benchmark.trace.overhead_share"] = timed.seconds/counted.seconds - 1
		m["eval.self_s"] = plain.seconds - counted.seconds
		m["objective.eval_ns_per_job"] = float64(g.objectiveNS) / jobs
		m["trace.scan_ns_per_job"] = float64(g.scanNS) / float64(g.read)
		sp := r.tr.begin("eval.parallel", root, 0)
		if m["eval.grid_parallel_s"], err = g.parallelGrid(); err != nil {
			return nil, err
		}
		r.tr.end(sp)
	} else {
		for k, v := range plain.cells {
			m["sched.cell_s."+k] = v
		}
	}

	r.tr.end(root)
	r.emitLayers(res, m)
	return res, r.writeSpans()
}

// emitLayers reports the measured layer metrics that apply to the
// workload; the decorators also hand back zeros for seams a workload
// does not have (sim_backlog has no sink).
func (r *run) emitLayers(res *result, m map[string]float64) {
	for k, v := range m {
		if layerApplies(k, r.workload) {
			res.Metrics[k] = one(v)
		}
	}
}

func (r *run) writeSpans() error {
	r.tr.finish()
	if err := r.tr.write(r.traceOut); err != nil {
		return err
	}
	r.logf("%d spans written to %s", len(r.tr.spans), r.traceOut)
	return nil
}
