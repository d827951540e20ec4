package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"jobsched/internal/eval"
	"jobsched/internal/job"
	"jobsched/internal/profile"
	"jobsched/internal/queue"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
	"jobsched/internal/trace"
	"jobsched/internal/workload"
)

const machineNodes = 256

// instr is the instrumentation of one traced round: decorator times,
// the layers' own exact counters, and what the engine reports.
type instr struct {
	// timed installs the timing decorators; without it only the layers'
	// own counters are attached, which cost next to nothing.
	timed    bool
	lt       layerTimes
	ps       profile.Stats
	qs       queue.Stats
	events   int64
	maxQueue int64
}

func (in *instr) hooks() telemetry.Hooks {
	if in == nil {
		return telemetry.Hooks{}
	}
	return telemetry.Hooks{ProfileStats: &in.ps, QueueStats: &in.qs}
}

func (in *instr) factory() sched.ProfileFactory {
	if in == nil || !in.timed {
		return nil
	}
	return timedTreeFactory(&in.lt)
}

func (in *instr) took(res *sim.Result) {
	if in == nil {
		return
	}
	in.events += int64(res.Events)
	if int64(res.MaxQueue) > in.maxQueue {
		in.maxQueue = int64(res.MaxQueue)
	}
}

// scheduler decorates alg in a timed round and opens the span the
// decorated calls hang from.
func (in *instr) scheduler(r *run, name string, alg sim.Scheduler) (sim.Scheduler, int) {
	if in == nil || !in.timed {
		return alg, 0
	}
	span := r.tr.begin(name, r.roundSpan, r.op)
	in.lt.tr, in.lt.parent, in.lt.op = r.tr, span, r.op
	return &timedScheduler{alg, &in.lt}, span
}

// counters are the exact counts the exactness guard compares between
// rounds: later issues may rest claims on them only because they
// repeat.
func (in *instr) counters() map[string]int64 {
	return map[string]int64{
		"sim.engine.events":          in.events,
		"sim.max_queue":              in.maxQueue,
		"queue.ops.pushes":           in.qs.Pushes,
		"queue.ops.removes":          in.qs.Removes,
		"queue.ops.hides":            in.qs.Hides,
		"queue.ops.steps":            in.qs.Steps,
		"queue.ops.fit_queries":      in.qs.FitQueries,
		"queue.ops.rebuilds":         in.qs.Rebuilds,
		"queue.ops.rebuilt_slots":    in.qs.RebuiltSlots,
		"queue.ops.select_queries":   in.qs.SelectQueries,
		"profile.ops.earliest_fit":   in.ps.EarliestFit,
		"profile.ops.reserve":        in.ps.Reserve + in.ps.ReserveClamped,
		"profile.ops.release":        in.ps.Release,
		"profile.ops.passes":         in.ps.Passes,
		"profile.ops.batched_starts": in.ps.BatchedStarts,
		"profile.ops.resets":         in.ps.Resets,
		"profile.tree_max_depth":     in.ps.TreeMaxDepth,
	}
}

// roundOut is what one pass over a workload's input produced.
type roundOut struct {
	seconds float64 // time inside the program under test
	jobs    int64   // simulated jobs completed
	outcome outcome // simulated statistics: identical every round
	cells   map[string]float64
}

// offlineWorkload is one of the three simulator workloads. setup builds
// the input from the seed; round runs the program once over it.
type offlineWorkload interface {
	setup(r *run) error
	round(r *run, in *instr, validate bool) (roundOut, error)
}

// ---- sim_stream -----------------------------------------------------

type simStream struct {
	cfg workload.RandomizedConfig
}

// setup generates the whole stream once: the generator is lazy, so this
// is what a user materialising the workload pays, and it yields the
// input digest that shows equal seeds give equal inputs.
func (w *simStream) setup(r *run) error {
	w.cfg = workload.CalibratedStreamConfig(r.sz.streamJobs, machineNodes, 0.7, r.seed)
	src, err := workload.NewStreamer(w.cfg)
	if err != nil {
		return err
	}
	var n, area int64
	for {
		j, err := src.Next()
		if err != nil {
			return err
		}
		if j == nil {
			break
		}
		n++
		area += int64(j.Nodes) * j.Runtime
	}
	r.inputDigest = fmt.Sprintf("jobs=%d area=%d", n, area)
	return nil
}

func (w *simStream) round(r *run, in *instr, _ bool) (roundOut, error) {
	gen, err := workload.NewStreamer(w.cfg)
	if err != nil {
		return roundOut{}, err
	}
	alg, err := sched.New(sched.OrderFCFS, sched.StartEASY,
		sched.Config{MachineNodes: machineNodes, Hooks: in.hooks(), ProfileFactory: in.factory()})
	if err != nil {
		return roundOut{}, err
	}
	agg := &sim.Aggregates{}
	var (
		src sim.Source = gen
		snk sim.Sink   = agg
	)
	sch, span := in.scheduler(r, "sim.run", alg)
	if span != 0 {
		src = &timedSource{gen, &in.lt}
		snk = &timedSink{agg, &in.lt}
	}
	t0 := time.Now()
	res, err := sim.RunStream(sim.Machine{Nodes: machineNodes}, src, sch, sim.Options{Sink: snk})
	dt := time.Since(t0)
	if err != nil {
		return roundOut{}, err
	}
	if span != 0 {
		r.tr.end(span)
	}
	in.took(res)
	return roundOut{
		seconds: dt.Seconds(),
		jobs:    agg.Completed,
		outcome: outcome{
			"completed":    fmt.Sprint(agg.Completed),
			"response_sum": fmt.Sprint(agg.ResponseSum),
			"makespan":     fmt.Sprint(agg.Makespan),
		},
	}, nil
}

// ---- sim_backlog ----------------------------------------------------

type backlogCell struct {
	slug  string
	order sched.OrderName
	start sched.StartName
	depth int
}

var backlogCells = []backlogCell{
	{"FCFS-List", sched.OrderFCFS, sched.StartList, 0},
	{"FCFS-EASY", sched.OrderFCFS, sched.StartEASY, 0},
	{"PSRS-EASY", sched.OrderPSRS, sched.StartEASY, 0},
	{"SMART-FFIA-Backfilling4", sched.OrderSMARTFFIA, sched.StartConservative, 4},
	{"GareyGraham-List", sched.OrderGG, sched.StartList, 0},
}

type simBacklog struct {
	jobs []*job.Job
}

// setup is the BENCH_5 deep-queue recipe: every job submitted at t=0,
// widths cycling 1..8 with a full-machine job every 199th, estimates in
// four classes. The seed offsets the index the pattern is taken from.
func (w *simBacklog) setup(r *run) error {
	n := r.sz.backlogJobs
	w.jobs = make([]*job.Job, n)
	var area int64
	for i := range w.jobs {
		k := i + int(r.seed%1_000_003)
		nodes := 1 + (k*7)%8
		if k%199 == 198 {
			nodes = machineNodes
		}
		w.jobs[i] = &job.Job{ID: job.ID(i), Submit: 0, Nodes: nodes,
			Runtime: 60, Estimate: 60 + int64(k%4)*30}
		if err := w.jobs[i].Validate(machineNodes, true); err != nil {
			return err
		}
		area += int64(nodes) * 60
	}
	r.inputDigest = fmt.Sprintf("jobs=%d area=%d", n, area)
	return nil
}

func (w *simBacklog) round(r *run, in *instr, _ bool) (roundOut, error) {
	out := roundOut{outcome: outcome{}, cells: map[string]float64{}}
	for _, c := range backlogCells {
		alg, err := sched.New(c.order, c.start, sched.Config{MachineNodes: machineNodes,
			MaxBackfillDepth: c.depth, Hooks: in.hooks(), ProfileFactory: in.factory()})
		if err != nil {
			return roundOut{}, err
		}
		sch, span := in.scheduler(r, "sim.run."+c.slug, alg)
		jobs := job.CloneAll(w.jobs)
		t0 := time.Now()
		res, err := sim.Run(sim.Machine{Nodes: machineNodes}, jobs, sch, sim.Options{})
		dt := time.Since(t0)
		if err != nil {
			return roundOut{}, fmt.Errorf("%s: %w", c.slug, err)
		}
		if span != 0 {
			r.tr.end(span)
		}
		in.took(res)
		var resp int64
		for i := range res.Schedule.Allocs {
			resp += res.Schedule.Allocs[i].ResponseTime()
		}
		out.seconds += dt.Seconds()
		out.jobs += int64(len(res.Schedule.Allocs))
		out.cells[c.slug] = dt.Seconds()
		out.outcome["makespan."+c.slug] = fmt.Sprint(res.Schedule.Makespan())
		out.outcome["response_sum."+c.slug] = fmt.Sprint(resp)
	}
	out.outcome["completed"] = fmt.Sprint(out.jobs)
	return out, nil
}

// ---- grid_ctc -------------------------------------------------------

type gridCTC struct {
	jobs []*job.Job
	// scanNS is how long trace.Scanner took over the SWF file in set-up.
	scanNS int64
	read   int
	// objectiveNS is the time the objective functions took over the
	// schedules of the counters-only round.
	objectiveNS int64
}

// ctcLoad is the offered load of the CTC trace replayed on 256 nodes.
const ctcLoad = 1.07

var gridCases = []eval.Case{eval.Unweighted, eval.Weighted}

// gridCells lists the paper grid in table order with metric-safe slugs.
type gridCell struct {
	slug  string
	order sched.OrderName
	start sched.StartName
}

func gridCells() []gridCell {
	orderSlug := map[sched.OrderName]string{sched.OrderGG: "GareyGraham"}
	startSlug := map[sched.StartName]string{sched.StartEASY: "EASY"}
	var cells []gridCell
	for _, o := range sched.GridOrders() {
		os := string(o)
		if s, ok := orderSlug[o]; ok {
			os = s
		}
		for _, s := range sched.GridStarts() {
			if o == sched.OrderGG && s != sched.StartList {
				continue
			}
			ss := string(s)
			if x, ok := startSlug[s]; ok {
				ss = x
			}
			cells = append(cells, gridCell{os + "." + ss, o, s})
		}
	}
	return cells
}

// setup is the paper's Table 3 input: the CTC model scaled to the
// configured job count, written to an SWF file and read back through
// the streaming scanner, then cut to the 256-node machine.
func (w *gridCTC) setup(r *run) error {
	cfg := workload.DefaultCTCConfig()
	cfg.SpanSeconds = cfg.SpanSeconds * int64(r.sz.ctcJobs) / int64(cfg.Jobs)
	cfg.Jobs = r.sz.ctcJobs
	gen := workload.CTC(cfg)
	// The CTC workload is one trace, and what a full grid over it costs
	// swings by ±10 % between independent draws of the model — more than
	// the regression bound. So the model's draw is fixed and the seed
	// perturbs it: every submission moves by up to ten minutes and every
	// runtime shrinks by up to 5 %, which changes the schedules of all
	// cells but not the character of the trace.
	rng := rand.New(rand.NewSource(r.seed))
	for _, j := range gen {
		j.Submit += rng.Int63n(601)
		j.Runtime -= rng.Int63n(j.Runtime/20 + 1)
	}
	job.SortBySubmit(gen)
	job.Renumber(gen)

	path := filepath.Join(r.workDir, "ctc.swf")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := trace.Write(bw, trace.Header{Computer: "benchmark-ctc", MaxNodes: cfg.MachineNodes}, gen); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	in, err := os.Open(path)
	if err != nil {
		return err
	}
	defer in.Close()
	sc := trace.NewScanner(bufio.NewReader(in), trace.ReadOptions{})
	var read []*job.Job
	t0 := time.Now()
	for {
		j, err := sc.Next()
		if err != nil {
			return err
		}
		if j == nil {
			break
		}
		read = append(read, j)
	}
	w.scanNS = int64(time.Since(t0))
	w.read = len(read)
	if len(read) != len(gen) {
		return fmt.Errorf("swf round trip: wrote %d jobs, read %d", len(gen), len(read))
	}
	var dropped int
	w.jobs, dropped = trace.FilterMaxNodes(read, machineNodes)
	// The model's offered load on 256 nodes varies by several percent
	// with the seed, and a conservative-backfilling grid costs far more
	// than proportionally with load. Stretch the submission times so that
	// every seed offers the paper's replay load: seeds then differ in
	// their jobs, not in how saturated the machine is.
	stretch := trace.OfferedLoad(w.jobs, machineNodes) / ctcLoad
	for _, j := range w.jobs {
		j.Submit = int64(float64(j.Submit) * stretch)
	}
	r.inputDigest = fmt.Sprintf("jobs=%d dropped=%d load=%.4f", len(w.jobs), dropped,
		trace.OfferedLoad(w.jobs, machineNodes))
	return nil
}

func (w *gridCTC) round(r *run, in *instr, validate bool) (roundOut, error) {
	if in != nil {
		return w.directRound(r, in)
	}
	out := roundOut{outcome: outcome{}, cells: map[string]float64{}}
	cells := gridCells()
	for _, c := range gridCases {
		// eval.Run asks for a cell's telemetry hooks just before it builds
		// the cell; answering with none and noting the time gives every
		// cell's duration without touching the run.
		var starts []time.Time
		opt := eval.Options{Validate: validate, Hooks: func(sched.OrderName, sched.StartName) telemetry.Hooks {
			starts = append(starts, time.Now())
			return telemetry.Hooks{}
		}}
		t0 := time.Now()
		g, err := eval.Run("Table 3", sim.Machine{Nodes: machineNodes}, w.jobs, c, opt)
		end := time.Now()
		if err != nil {
			return roundOut{}, err
		}
		if len(starts) != len(cells) {
			return roundOut{}, fmt.Errorf("grid %s: %d cells started, want %d", c, len(starts), len(cells))
		}
		for i, gc := range cells {
			next := end
			if i+1 < len(starts) {
				next = starts[i+1]
			}
			out.cells[gc.slug] += next.Sub(starts[i]).Seconds()
		}
		out.seconds += end.Sub(t0).Seconds()
		out.jobs += int64(len(w.jobs) * len(g.Cells))
		if err := gridOutcome(g, out.outcome); err != nil {
			return roundOut{}, err
		}
	}
	return out, nil
}

// directRound runs the grid's simulations the way eval.Run does, cell by
// cell, but builds each scheduler itself so that it can be decorated:
// eval offers no seam for that. Its time is also the bare sim.Run time
// that eval's own share (eval.self_s) is taken against. The cells'
// makespans must equal eval's.
func (w *gridCTC) directRound(r *run, in *instr) (roundOut, error) {
	out := roundOut{outcome: outcome{}}
	for _, c := range gridCases {
		for _, gc := range gridCells() {
			alg, err := sched.New(gc.order, gc.start, sched.Config{MachineNodes: machineNodes,
				Weight: c.WeightFunc(), Hooks: in.hooks(), ProfileFactory: in.factory()})
			if err != nil {
				return roundOut{}, err
			}
			sch, span := in.scheduler(r, "sim.run."+c.String()+"."+gc.slug, alg)
			t0 := time.Now()
			res, err := sim.Run(sim.Machine{Nodes: machineNodes}, w.jobs, sch, sim.Options{})
			dt := time.Since(t0)
			if err != nil {
				return roundOut{}, fmt.Errorf("%s: %w", gc.slug, err)
			}
			if span != 0 {
				r.tr.end(span)
			}
			in.took(res)
			if !in.timed {
				t0 = time.Now()
				if v := c.Metric().Eval(res.Schedule); v <= 0 {
					return roundOut{}, fmt.Errorf("objective of %s is %v", gc.slug, v)
				}
				w.objectiveNS += int64(time.Since(t0))
			}
			out.seconds += dt.Seconds()
			out.jobs += int64(len(w.jobs))
			out.outcome["makespan."+c.String()+"."+gc.slug] = fmt.Sprint(res.Schedule.Makespan())
		}
	}
	return out, nil
}

// gridOutcome records what a grid computed: the hash of the rendered
// table and every cell's makespan.
func gridOutcome(g *eval.Grid, o outcome) error {
	var buf bytes.Buffer
	if err := g.Render(&buf); err != nil {
		return err
	}
	o["render_sha256."+g.Case.String()] = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	for _, c := range gridCells() {
		cell := g.Cell(c.order, c.start)
		if cell == nil || cell.Err != "" {
			return fmt.Errorf("grid %s: cell %s missing or failed", g.Case, c.slug)
		}
		o["makespan."+g.Case.String()+"."+c.slug] = fmt.Sprint(cell.Makespan)
	}
	return nil
}

// parallelGrid times the grid on eval's worker pool.
func (w *gridCTC) parallelGrid() (float64, error) {
	t0 := time.Now()
	for _, c := range gridCases {
		if _, err := eval.Run("Table 3", sim.Machine{Nodes: machineNodes}, w.jobs, c,
			eval.Options{Parallel: true, Workers: runtime.NumCPU()}); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}
