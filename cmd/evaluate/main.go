// Command evaluate reproduces the paper's full evaluation: Tables 1–8
// and the data series behind Figures 3–6.
//
// Usage:
//
//	evaluate [-full] [-table N] [-csv dir] [-nodes 256] [-seed 1]
//
// Without -full, scaled-down workloads (≈1/8 of the paper's job counts)
// are used so the whole run finishes in well under a minute; -full uses the
// paper-scale counts of Table 1 (79,164 / 50,000 / 50,000 jobs) and
// changes nothing else. Its conservative backfilling cells dominate the
// run time (see EXPERIMENTS.md). Shapes, not absolute values, are the
// reproduction target.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jobsched/internal/cli"
	"jobsched/internal/durable"
	"jobsched/internal/eval"
	"jobsched/internal/job"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
	"jobsched/internal/trace"
	"jobsched/internal/workload"
)

// robustness collects the hardening knobs of a grid run: crash-safe
// journaling with resume, error containment, the per-cell watchdog,
// sharding, and the failure-injection flags.
type robustness struct {
	journalPath string
	resume      bool
	keepGoing   bool
	cellWall    time.Duration
	shards      int
	shard       int
	fo          *cli.FaultOptions
}

func main() {
	var (
		full     = flag.Bool("full", false, "paper-scale job counts of Table 1 (same policies; much slower)")
		scale    = flag.Int("scale", 0, "workload scale divisor (0 = default: 8, or 1 with -full); larger is faster")
		table    = flag.Int("table", 0, "only this table (1-8); 0 = all")
		csvDir   = flag.String("csv", "", "also write per-table CSV series (figures) to this directory")
		nodes    = flag.Int("nodes", 256, "batch partition size")
		seed     = flag.Int64("seed", 1, "workload generation seed")
		traceDir = flag.String("trace", "", "write one JSONL decision trace per grid cell to this directory (tables 3-6; see analyze -explain)")
		counters = flag.Bool("counters", false, "print per-cell run counters after each grid (tables 3-6)")
		merge    = flag.String("merge", "", "merge the shard journals given as positional arguments into this file, then exit")
		rb       robustness
	)
	flag.StringVar(&rb.journalPath, "journal", "", "crash-safe cell journal (JSONL); completed cells survive interruption")
	flag.BoolVar(&rb.resume, "resume", false, "restore completed cells from -journal instead of re-simulating them")
	flag.BoolVar(&rb.keepGoing, "keepgoing", false, "record a failing cell's error and continue instead of aborting the run")
	flag.DurationVar(&rb.cellWall, "cellwall", 0, "per-cell wall-clock budget (e.g. 5m); overruns become cell errors (0 = off)")
	flag.IntVar(&rb.shards, "shards", 1, "split every grid across this many worker processes; each simulates only the cells it owns")
	flag.IntVar(&rb.shard, "shard", 0, "this worker's shard index in [0, shards); requires -journal so the owned cells are recorded for -merge")
	rb.fo = cli.AddFaultFlags(flag.CommandLine)
	flag.Parse()
	if *merge != "" {
		if err := runMerge(*merge, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "evaluate:", err)
			os.Exit(1)
		}
		return
	}
	if err := checkFlags(*table, rb); err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
	if err := run(*full, *scale, *table, *csvDir, *nodes, *seed, *traceDir, *counters, rb); err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
}

// checkFlags rejects flag values the run would otherwise ignore: a table
// outside 0–8, a shard index outside [0, shards), and -resume or -shards
// without the journal they need.
func checkFlags(table int, rb robustness) error {
	switch {
	case table < 0 || table > 8:
		return fmt.Errorf("-table %d out of range (1-8, or 0 for all)", table)
	case rb.shards < 1:
		return fmt.Errorf("-shards %d: need at least 1", rb.shards)
	case rb.shard < 0 || rb.shard >= rb.shards:
		return fmt.Errorf("-shard %d out of range [0,%d)", rb.shard, rb.shards)
	case rb.resume && rb.journalPath == "":
		return errors.New("-resume needs -journal")
	case rb.shards > 1 && rb.journalPath == "":
		return errors.New("-shards needs -journal (the owned cells must be recorded for -merge)")
	}
	return nil
}

// runMerge unions shard journals (refusing mixed fingerprints) into one
// file a final `evaluate -journal merged -resume` can render from
// without re-simulating anything.
func runMerge(out string, srcs []string) error {
	if len(srcs) == 0 {
		return fmt.Errorf("-merge needs the shard journal paths as arguments")
	}
	if err := eval.MergeJournals(out, srcs...); err != nil {
		return err
	}
	j, err := eval.OpenJournal(out, true)
	if err != nil {
		return err
	}
	defer j.Close()
	fmt.Fprintf(os.Stderr, "evaluate: merged %d journals into %s (%d cells)\n",
		len(srcs), out, j.Completed())
	return nil
}

func run(full bool, scale, table int, csvDir string, nodes int, seed int64, traceDir string, counters bool, rb robustness) error {
	if scale <= 0 {
		scale = 8
		if full {
			scale = 1
		}
	}

	// ^C aborts the run cleanly between event batches: the engine polls
	// the flag, returns sim.ErrInterrupted, and journaled cells survive
	// for a -resume. A second ^C falls through to the default handler.
	var interrupted atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	defer signal.Stop(sigc)
	go func() {
		<-sigc
		interrupted.Store(true)
		signal.Stop(sigc)
	}()

	var journal *eval.Journal
	if rb.journalPath != "" {
		var err error
		journal, err = eval.OpenJournal(rb.journalPath, rb.resume)
		if err != nil {
			return err
		}
		defer journal.Close()
		if rb.resume && journal.Completed() > 0 {
			fmt.Fprintf(os.Stderr, "evaluate: resuming, %d cells restored from %s\n",
				journal.Completed(), rb.journalPath)
		}
	}

	// Workloads (Section 6).
	ctcCfg := workload.DefaultCTCConfig()
	ctcCfg.Jobs /= scale
	ctcCfg.SpanSeconds /= int64(scale)
	ctcCfg.Seed = seed
	ctcRaw := workload.CTC(ctcCfg)
	ctc, removed := trace.FilterMaxNodes(ctcRaw, nodes)

	m := sim.Machine{Nodes: nodes}
	want := func(n int) bool { return table == 0 || table == n }

	if want(1) {
		fmt.Println("Table 1. Number of jobs in various workloads")
		fmt.Printf("  %-26s %d (generated %d, %d deleted as wider than %d nodes)\n",
			"CTC", len(ctc), len(ctcRaw), removed, nodes)
		fmt.Printf("  %-26s %d\n", "Probability distribution", workload.ProbabilisticJobs/scale)
		fmt.Printf("  %-26s %d\n", "Randomized", workload.RandomizedJobs/scale)
		fmt.Println()
	}
	if want(2) {
		fmt.Println("Table 2. Parameters for randomized job generation")
		cfg := workload.DefaultRandomizedConfig()
		fmt.Printf("  Submission of jobs            >= 1 job per hour (gap <= %d s)\n", cfg.MaxGap)
		fmt.Printf("  Requested number of nodes     %d - %d\n", cfg.MinNodes, cfg.MaxNodes)
		fmt.Printf("  Upper limit for execution     %d s - %d s\n", cfg.MinLimit, cfg.MaxLimit)
		fmt.Printf("  Actual execution time         %d s - upper limit\n", cfg.MinRuntime)
		fmt.Println()
	}

	gridOpts := eval.Options{
		Parallel:    true,
		Validate:    true,
		KeepGoing:   rb.keepGoing,
		CellTimeout: rb.cellWall,
		Interrupt:   interrupted.Load,
		Journal:     journal,
		Resubmit:    rb.fo.Resubmit(),
		ShardCount:  rb.shards,
		ShardIndex:  rb.shard,
	}
	if journal != nil {
		// Stamp the journal with this evaluation's fingerprint: a -resume
		// (or a -merge input) recorded under different workloads, options
		// or fault flags is refused instead of serving stale cells. The
		// workloads are fully determined by (nodes, seed, scale), and the
		// per-table fault plans by the fault flags, so hashing those
		// inputs covers every cell value; sharding and resume knobs are
		// deliberately excluded so shards stamp identically.
		fp := eval.NewFingerprint()
		fp.Machine(m)
		fp.Int(int64(scale))
		fp.Int(seed)
		fp.Options(gridOpts)
		fp.Float(rb.fo.MTBF)
		fp.Float(rb.fo.MTTR)
		fp.Float(rb.fo.FailShape)
		fp.Float(rb.fo.RepairShape)
		fp.Int(int64(rb.fo.FailNodes))
		fp.Float(rb.fo.MaxDownFrac)
		fp.Int(rb.fo.Seed)
		fp.String(rb.fo.Maintenance)
		if err := journal.Stamp(fp.Sum()); err != nil {
			return err
		}
	}
	if rb.shards > 1 {
		fmt.Fprintf(os.Stderr, "evaluate: shard %d of %d — foreign cells are skipped; merge the shard journals to render full tables\n",
			rb.shard, rb.shards)
	}
	emit := func(name string, g *eval.Grid) error {
		if err := g.Render(os.Stdout); err != nil {
			return err
		}
		for _, c := range g.Cells {
			if c.Err != "" && !c.OtherShard {
				fmt.Fprintf(os.Stderr, "evaluate: cell %s/%s failed: %s\n",
					c.Order, c.Start, firstLine(c.Err))
			}
		}
		if rb.fo.Enabled() {
			var aborted, resub, lost int
			for _, c := range g.Cells {
				aborted += c.Aborted
				resub += c.Resubmits
				lost += c.Lost
			}
			fmt.Printf("  (failures: %d aborted attempts, %d resubmissions, %d lost jobs across the grid)\n",
				aborted, resub, lost)
		}
		fmt.Println()
		if csvDir != "" {
			path := filepath.Join(csvDir, name+".csv")
			if err := writeCSV(path, g); err != nil {
				return err
			}
			fmt.Printf("  (series written to %s)\n\n", path)
		}
		return nil
	}

	runBoth := func(title, name string, jobs []*workloadJob) error {
		opts := gridOpts
		if rb.fo.Enabled() {
			// One fault plan per workload, spanning its submissions; the
			// maintenance windows are announced to the schedulers.
			_, last := job.Span(jobs)
			plan, err := rb.fo.Plan(nodes, last)
			if err != nil {
				return err
			}
			opts.Failures = plan.Failures
			opts.Announced = plan.Announced
		}
		for _, c := range []eval.Case{eval.Unweighted, eval.Weighted} {
			gname := fmt.Sprintf("%s_%s", name, c)
			copts := opts
			hooks, finish := cellTelemetry(gname, traceDir, counters)
			copts.Hooks = hooks
			g, err := eval.Run(title, m, jobs, c, copts)
			if err != nil {
				return err
			}
			if err := emit(gname, g); err != nil {
				return err
			}
			if err := finish(); err != nil {
				return err
			}
		}
		return nil
	}

	if want(3) {
		fmt.Println("Table 3 / Figures 3-4. Average response time, CTC workload")
		if err := runBoth("CTC workload", "table3", ctc); err != nil {
			return err
		}
	}
	if want(4) {
		fmt.Println("Table 4 / Figure 5. Average response time, probability-distributed workload")
		prob, err := workload.Probabilistic(ctc, workload.ProbabilisticJobs/scale, seed+1)
		if err != nil {
			return err
		}
		if err := runBoth("Probability-distributed workload", "table4", prob); err != nil {
			return err
		}
	}
	if want(5) {
		fmt.Println("Table 5. Average response time, randomized workload")
		rcfg := workload.DefaultRandomizedConfig()
		rcfg.Jobs /= scale
		rcfg.Seed = seed + 2
		if err := runBoth("Randomized workload", "table5", workload.Randomized(rcfg)); err != nil {
			return err
		}
	}
	if want(6) {
		fmt.Println("Table 6 / Figure 6. CTC workload with exact job execution times")
		exact := trace.WithExactEstimates(ctc)
		if err := runBoth("CTC workload, exact runtimes", "table6", exact); err != nil {
			return err
		}
	}
	if want(7) {
		fmt.Println("Table 7. Scheduler computation time, CTC workload")
		if err := computeTimeTable("CTC workload", m, ctc, csvDir, "table7", interrupted.Load); err != nil {
			return err
		}
	}
	if want(8) {
		fmt.Println("Table 8. Scheduler computation time, probability-distributed workload")
		prob, err := workload.Probabilistic(ctc, workload.ProbabilisticJobs/scale, seed+1)
		if err != nil {
			return err
		}
		if err := computeTimeTable("Probability-distributed workload", m, prob, csvDir, "table8", interrupted.Load); err != nil {
			return err
		}
	}
	return nil
}

// workloadJob aliases the job type to keep helper signatures short.
type workloadJob = job.Job

// cellTelemetry builds the per-cell telemetry attachment for one grid run
// and a finish function that flushes trace files and prints the counter
// summary after the table renders. With both knobs off it returns a nil
// factory — the grid runs on the nil-recorder fast path. Each cell gets
// its own recorder, so the Parallel grid stays race-free; the factory is
// called from the worker goroutines and therefore locks its shared state.
func cellTelemetry(name, traceDir string, counters bool) (func(o sched.OrderName, s sched.StartName) telemetry.Hooks, func() error) {
	if traceDir == "" && !counters {
		return nil, func() error { return nil }
	}
	type cell struct {
		label string
		cnt   *telemetry.Counters
		jl    *telemetry.JSONL
		f     *os.File
	}
	var (
		mu    sync.Mutex
		cells []*cell
		fail  error
	)
	hooks := func(o sched.OrderName, s sched.StartName) telemetry.Hooks {
		c := &cell{label: fmt.Sprintf("%s/%s", o, s)}
		var h telemetry.Hooks
		if counters {
			c.cnt = telemetry.NewCounters()
			h = c.cnt.Hooks()
		}
		mu.Lock()
		defer mu.Unlock()
		if traceDir != "" && fail == nil {
			path := filepath.Join(traceDir, fmt.Sprintf("%s_%s_%s.jsonl",
				name, sanitize(string(o)), sanitize(string(s))))
			f, err := os.Create(path)
			if err != nil {
				fail = err
			} else {
				c.f = f
				c.jl = telemetry.NewJSONL(f)
				h.Recorder = telemetry.Multi(h.Recorder, c.jl)
			}
		}
		cells = append(cells, c)
		return h
	}
	finish := func() error {
		mu.Lock()
		defer mu.Unlock()
		if fail != nil {
			return fail
		}
		sort.Slice(cells, func(i, j int) bool { return cells[i].label < cells[j].label })
		for _, c := range cells {
			if c.jl == nil {
				continue
			}
			if err := c.jl.Flush(); err != nil {
				return fmt.Errorf("writing %s trace: %w", c.label, err)
			}
			if err := c.f.Close(); err != nil {
				return fmt.Errorf("writing %s trace: %w", c.label, err)
			}
		}
		if traceDir != "" {
			fmt.Fprintf(os.Stderr, "evaluate: decision traces for %s written to %s\n", name, traceDir)
		}
		if counters {
			fmt.Printf("  -- run counters (%s) --\n", name)
			for _, c := range cells {
				k := c.cnt
				var bfA, bfS int64
				for _, v := range k.BackfillAttempts {
					bfA += v
				}
				for _, v := range k.BackfillSuccesses {
					bfS += v
				}
				fmt.Printf("  %-32s passes=%-6d startable=%-6d starts=%-6d backfill=%d/%d profile-ops=%d\n",
					c.label, k.Passes, k.StartableCalls, k.Starts, bfS, bfA, k.Profile.Total())
			}
			counts := make([]*telemetry.Counters, len(cells))
			labels := make([]string, len(cells))
			for i, c := range cells {
				counts[i], labels[i] = c.cnt, c.label
			}
			fmt.Printf("  -- exact work (%s) --\n", name)
			printWork(labels, counts)
			fmt.Println()
		}
		return nil
	}
	return hooks, finish
}

// workCounter is one column of the exact-work ledger: a deterministic
// operation count of the profile kernel (profile.ops) or the queue index
// (queue.ops), the layers the benchmark's traced runs report under the
// same names. Shape diagnostics (the always-zero tree depth, index
// grows) are left out: they measure structure, not work.
type workCounter struct {
	layer, name string
	get         func(*telemetry.Counters) int64
}

var workCounters = []workCounter{
	{"profile", "earliest_fit", func(c *telemetry.Counters) int64 { return c.Profile.EarliestFit }},
	{"profile", "reserve", func(c *telemetry.Counters) int64 { return c.Profile.Reserve }},
	{"profile", "reserve_clamped", func(c *telemetry.Counters) int64 { return c.Profile.ReserveClamped }},
	{"profile", "release", func(c *telemetry.Counters) int64 { return c.Profile.Release }},
	{"profile", "free_at", func(c *telemetry.Counters) int64 { return c.Profile.FreeAt }},
	{"profile", "min_free", func(c *telemetry.Counters) int64 { return c.Profile.MinFree }},
	{"profile", "resets", func(c *telemetry.Counters) int64 { return c.Profile.Resets }},
	{"profile", "passes", func(c *telemetry.Counters) int64 { return c.Profile.Passes }},
	{"profile", "batched_starts", func(c *telemetry.Counters) int64 { return c.Profile.BatchedStarts }},
	{"queue", "pushes", func(c *telemetry.Counters) int64 { return c.Queue.Pushes }},
	{"queue", "removes", func(c *telemetry.Counters) int64 { return c.Queue.Removes }},
	{"queue", "hides", func(c *telemetry.Counters) int64 { return c.Queue.Hides }},
	{"queue", "steps", func(c *telemetry.Counters) int64 { return c.Queue.Steps }},
	{"queue", "fit_queries", func(c *telemetry.Counters) int64 { return c.Queue.FitQueries }},
	{"queue", "rank_queries", func(c *telemetry.Counters) int64 { return c.Queue.RankQueries }},
	{"queue", "select_queries", func(c *telemetry.Counters) int64 { return c.Queue.SelectQueries }},
	{"queue", "rebuilds", func(c *telemetry.Counters) int64 { return c.Queue.Rebuilds }},
	{"queue", "rebuilt_slots", func(c *telemetry.Counters) int64 { return c.Queue.RebuiltSlots }},
	{"queue", "compactions", func(c *telemetry.Counters) int64 { return c.Queue.Compactions }},
}

// printWork prints the exact-work ledger of one grid: per cell, one line
// per layer with every counter that is nonzero on some cell of the grid
// (a cell whose counters are all 0 in a layer gets no line there). The
// counts are deterministic, so a diff of two ledgers shows exactly which
// cells do more or less work.
func printWork(labels []string, cells []*telemetry.Counters) {
	for _, layer := range []string{"profile", "queue"} {
		var cols []workCounter
		for _, wc := range workCounters {
			if wc.layer != layer {
				continue
			}
			for _, c := range cells {
				if wc.get(c) != 0 {
					cols = append(cols, wc)
					break
				}
			}
		}
		if len(cols) == 0 {
			continue
		}
		for i, c := range cells {
			var b strings.Builder
			fmt.Fprintf(&b, "  %-32s %-8s", labels[i], layer)
			nonzero := false
			for _, wc := range cols {
				fmt.Fprintf(&b, " %s=%d", wc.name, wc.get(c))
				nonzero = nonzero || wc.get(c) != 0
			}
			if nonzero {
				fmt.Println(b.String())
			}
		}
	}
}

// firstLine trims a multi-line cell error (panics carry their stack) to
// its headline for the per-cell summary.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// sanitize maps a policy name onto a filesystem-safe token
// ("Garey&Graham" -> "Garey-Graham").
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			return r
		}
		return '-'
	}, s)
}

// writeCSV durably replaces path with the grid's CSV series.
func writeCSV(path string, g *eval.Grid) error {
	return durable.ReplaceFile(path, func(w *bufio.Writer) error { return g.CSV(w) })
}

func computeTimeTable(title string, m sim.Machine, jobs []*workloadJob, csvDir, name string, interrupt func() bool) error {
	// Computation time must be measured serially so cells are comparable;
	// timings are not deterministic, so these tables are never journaled.
	for _, c := range []eval.Case{eval.Unweighted, eval.Weighted} {
		g, err := eval.Run(title, m, jobs, c, eval.Options{MeasureCPU: true, Interrupt: interrupt})
		if err != nil {
			return err
		}
		if err := g.RenderComputeTime(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if csvDir != "" {
			if err := writeCSV(filepath.Join(csvDir, fmt.Sprintf("%s_%s.csv", name, c)), g); err != nil {
				return err
			}
		}
	}
	return nil
}
