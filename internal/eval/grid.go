// Package eval runs the paper's evaluation grid — order policies ×
// start policies over a workload for an objective — and renders the
// results in the layout of Tables 3–8, including percentages relative to
// the FCFS/EASY reference cell ("the administrator selects the simulation
// of FCFS with EASY backfilling to be a reference value as this algorithm
// is used by the CTC").
package eval

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"jobsched/internal/bounds"
	"jobsched/internal/job"
	"jobsched/internal/objective"
	"jobsched/internal/sched"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

// Case selects the objective flavor of a grid run.
type Case int

const (
	// Unweighted is the average response time objective (daytime rule).
	Unweighted Case = iota
	// Weighted is the average weighted response time objective
	// (night/weekend rule; weight = resource consumption).
	Weighted
)

func (c Case) String() string {
	if c == Unweighted {
		return "Unweighted"
	}
	return "Weighted"
}

// Metric returns the objective function of the case.
func (c Case) Metric() objective.Metric {
	if c == Unweighted {
		return objective.AvgResponseTime{}
	}
	return objective.AvgWeightedResponseTime{}
}

// WeightFunc returns the scheduling weight SMART/PSRS use for the case.
func (c Case) WeightFunc() job.WeightFunc {
	if c == Unweighted {
		return job.UnitWeight
	}
	return job.AreaWeight
}

// Cell is one algorithm's result in a grid.
type Cell struct {
	Order sched.OrderName
	Start sched.StartName
	// Value is the objective value (seconds or weighted seconds).
	Value float64
	// Pct is the deviation from the reference cell in percent
	// (negative = better, as in the paper's tables).
	Pct float64
	// SchedulerTime is the computation time spent inside the scheduler
	// (Tables 7–8; only meaningful for serial, measured runs).
	SchedulerTime time.Duration
	// MaxQueue is the largest backlog observed.
	MaxQueue int
	// Makespan and Utilization are auxiliary diagnostics.
	Makespan    int64
	Utilization float64
	// Aborted/Resubmits/Lost are the failure-injection counters of the
	// cell's run (all zero on fault-free grids).
	Aborted   int
	Resubmits int
	Lost      int
	// Err records why the cell produced no result (panic, wall-clock
	// budget, simulation error) when Options.KeepGoing let the rest of
	// the grid proceed. Empty on success.
	Err string
	// OtherShard marks a cell a sharded run left to another shard (Err
	// says which); it is not a failure.
	OtherShard bool
}

// Grid holds the full result of one table's simulations.
type Grid struct {
	Title    string
	Case     Case
	Machine  sim.Machine
	Jobs     int
	Cells    []Cell
	Ref      *Cell // the FCFS/EASY reference cell
	Duration time.Duration
	// LowerBound is the theoretical lower bound on the case's objective
	// for this workload (Section 2.3's potential-improvement estimate);
	// every cell's Value is provably at or above it.
	LowerBound float64
}

// Options tune a grid run.
type Options struct {
	// Parallel runs the independent cells concurrently on a bounded worker
	// pool. Leave false when SchedulerTime must be comparable across cells
	// (Tables 7–8).
	Parallel bool
	// Workers bounds the pool size of a Parallel run; 0 means
	// runtime.GOMAXPROCS(0). Results are independent of the pool size:
	// every cell simulates a deep-copied workload and writes only its own
	// slot (the determinism tests assert byte-identical tables across
	// pool sizes).
	Workers int
	// MeasureCPU enables scheduler computation-time capture.
	MeasureCPU bool
	// Validate re-checks every produced schedule.
	Validate bool
	// MaxBackfillDepth bounds the conservative starter (0 = unlimited).
	MaxBackfillDepth int
	// Orders/Starts override the paper grid (nil = paper grid).
	Orders []sched.OrderName
	Starts []sched.StartName
	// ProfileFactory selects the scratch-profile backend of the
	// profile-backed start policies (nil = the O(log S) tree kernel; see
	// sched.Config.ProfileFactory). Schedules are backend-independent;
	// the determinism tests assert byte-identical tables across kernels.
	ProfileFactory sched.ProfileFactory
	// Hooks, when non-nil, supplies per-cell telemetry attachment points
	// (decision-trace recorder, profile op counters). It is called once
	// per cell before construction; returning the zero Hooks disables
	// telemetry for that cell. Recorders are driven from the cell's own
	// simulation goroutine, so a Parallel run must hand out distinct
	// recorders per cell (or force serial execution).
	Hooks func(o sched.OrderName, s sched.StartName) telemetry.Hooks
	// Failures injects the same outage schedule into every cell's
	// simulation (see sim.Options.Failures); Announced is the subset the
	// schedulers are told about in advance (see sched.Config.Announced).
	Failures  []sim.Failure
	Announced []sim.Failure
	// Resubmit governs retries of failure-aborted jobs in every cell.
	Resubmit sim.ResubmitPolicy
	// KeepGoing records a failing cell's error in Cell.Err and continues
	// with the rest of the grid instead of aborting the whole run. Cell
	// panics are recovered and treated the same way. A user interrupt
	// (Interrupt below) always aborts regardless.
	KeepGoing bool
	// CellTimeout bounds each cell's wall-clock time; an overrunning
	// simulation is interrupted and reported as a cell error (subject to
	// KeepGoing). Zero disables the watchdog.
	CellTimeout time.Duration
	// Interrupt, when non-nil, is polled by every cell's simulation;
	// reporting true aborts the grid with sim.ErrInterrupted. Wire it to
	// signal handling for clean ^C shutdown mid-grid.
	Interrupt func() bool
	// Journal, when non-nil, makes the run crash-safe: every completed
	// cell is appended to the journal (with an fsync), and cells already
	// present are restored without re-simulating. Combined with the same
	// workload and options, a resumed run renders byte-identically to an
	// uninterrupted one.
	Journal *Journal
	// ShardCount/ShardIndex split the grid across worker processes:
	// with ShardCount > 1, only cells whose enumeration index is
	// congruent to ShardIndex modulo ShardCount are simulated (cell
	// enumeration is deterministic, so shards partition the grid
	// exactly). Foreign cells are restored from the Journal when present
	// and otherwise marked with Cell.Err — a shard's Grid is partial and
	// not meant to be rendered. Merge the shard journals with
	// MergeJournals and re-run with the merged journal to render;
	// because every cell value round-trips exactly through the journal,
	// the merged tables are byte-identical to a single-process run.
	ShardCount int
	ShardIndex int
}

// gridCells enumerates the (order, start) pairs of the paper's tables:
// every order × every start policy, except Garey&Graham which appears
// only in the list column (backfilling is of no benefit to it).
func gridCells(orders []sched.OrderName, starts []sched.StartName) [][2]interface{} {
	var cells [][2]interface{}
	for _, o := range orders {
		if o == sched.OrderGG {
			cells = append(cells, [2]interface{}{o, sched.StartList})
			continue
		}
		for _, s := range starts {
			cells = append(cells, [2]interface{}{o, s})
		}
	}
	return cells
}

// Run simulates the grid over the workload. Every cell gets a fresh
// deep-copied workload so schedulers cannot interfere through shared job
// pointers.
func Run(title string, m sim.Machine, jobs []*job.Job, c Case, opt Options) (*Grid, error) {
	orders := opt.Orders
	if orders == nil {
		orders = sched.GridOrders()
	}
	starts := opt.Starts
	if starts == nil {
		starts = sched.GridStarts()
	}
	if opt.ShardCount > 1 && (opt.ShardIndex < 0 || opt.ShardIndex >= opt.ShardCount) {
		return nil, fmt.Errorf("eval: shard index %d out of range [0,%d)", opt.ShardIndex, opt.ShardCount)
	}
	cells := gridCells(orders, starts)
	g := &Grid{Title: title, Case: c, Machine: m, Jobs: len(jobs)}
	g.Cells = make([]Cell, len(cells))
	if c == Unweighted {
		g.LowerBound = bounds.AvgResponseTime(jobs, m.Nodes)
	} else {
		g.LowerBound = bounds.AvgWeightedResponseTime(jobs, m.Nodes)
	}

	t0 := time.Now()
	metric := c.Metric()
	cfg := sched.Config{
		MachineNodes:     m.Nodes,
		Weight:           c.WeightFunc(),
		MaxBackfillDepth: opt.MaxBackfillDepth,
		Announced:        opt.Announced,
		ProfileFactory:   opt.ProfileFactory,
	}

	// simulateCell runs one cell to completion. Panics inside the
	// scheduler or engine are recovered into a cell error (with the
	// stack, so the report stays actionable); a per-cell wall-clock
	// watchdog interrupts runaway simulations. Timeouts come back as a
	// plain error; a user interrupt keeps its sim.ErrInterrupted
	// identity so the caller can abort the whole grid.
	simulateCell := func(o sched.OrderName, s sched.StartName) (cell Cell, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("eval: %s/%s: panic: %v\n%s", o, s, r, debug.Stack())
			}
		}()
		interrupt := opt.Interrupt
		var timedOut atomic.Bool
		if opt.CellTimeout > 0 {
			timer := time.AfterFunc(opt.CellTimeout, func() { timedOut.Store(true) })
			defer timer.Stop()
			user := interrupt
			interrupt = func() bool {
				return timedOut.Load() || (user != nil && user())
			}
		}
		cellCfg := cfg
		var hooks telemetry.Hooks
		if opt.Hooks != nil {
			hooks = opt.Hooks(o, s)
			cellCfg.Hooks = hooks
		}
		alg, err := sched.New(o, s, cellCfg)
		if err != nil {
			return Cell{}, err
		}
		res, err := sim.Run(m, job.CloneAll(jobs), alg, sim.Options{
			Validate:   opt.Validate,
			MeasureCPU: opt.MeasureCPU,
			Recorder:   hooks.Recorder,
			Failures:   opt.Failures,
			Resubmit:   opt.Resubmit,
			Interrupt:  interrupt,
		})
		if err != nil {
			if errors.Is(err, sim.ErrInterrupted) && timedOut.Load() {
				return Cell{}, fmt.Errorf("eval: %s/%s: cell exceeded the %v wall-clock budget", o, s, opt.CellTimeout)
			}
			return Cell{}, fmt.Errorf("eval: %s/%s: %w", o, s, err)
		}
		return Cell{
			Order:         o,
			Start:         s,
			Value:         metric.Eval(res.Schedule),
			SchedulerTime: res.SchedulerTime,
			MaxQueue:      res.MaxQueue,
			Makespan:      res.Schedule.Makespan(),
			Utilization:   objective.Utilization{}.Eval(res.Schedule),
			Aborted:       res.AbortedAttempts,
			Resubmits:     res.Resubmits,
			Lost:          res.LostJobs,
		}, nil
	}

	runCell := func(i int) error {
		o := cells[i][0].(sched.OrderName)
		s := cells[i][1].(sched.StartName)
		if opt.Journal != nil {
			if cell, ok := opt.Journal.Lookup(title, c, o, s); ok {
				g.Cells[i] = cell
				return nil
			}
		}
		if opt.ShardCount > 1 && i%opt.ShardCount != opt.ShardIndex {
			g.Cells[i] = Cell{Order: o, Start: s, OtherShard: true,
				Err: fmt.Sprintf("eval: cell owned by shard %d of %d (merge the shard journals to render)", i%opt.ShardCount, opt.ShardCount)}
			return nil
		}
		cell, err := simulateCell(o, s)
		if err != nil {
			if errors.Is(err, sim.ErrInterrupted) {
				return err // user abort: never journaled, never swallowed
			}
			if !opt.KeepGoing {
				return err
			}
			g.Cells[i] = Cell{Order: o, Start: s, Err: err.Error()}
			return nil
		}
		g.Cells[i] = cell
		if opt.Journal != nil {
			// Only successful cells are journaled: errored cells re-run
			// on resume, so a transient failure does not stick.
			if jerr := opt.Journal.Record(title, c, cell); jerr != nil {
				return fmt.Errorf("eval: %s/%s: journal: %w", o, s, jerr)
			}
		}
		return nil
	}

	if opt.Parallel {
		// Bounded worker pool: a grid is at most a few dozen cells today,
		// but sweep drivers (cmd/evaluate, capacity studies) stack many
		// grids, and one goroutine per cell at every layer oversubscribes
		// the scheduler. Workers defaults to GOMAXPROCS.
		workers := opt.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(cells) {
			workers = len(cells)
		}
		var wg sync.WaitGroup
		errs := make([]error, len(cells))
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					errs[i] = runCell(i)
				}
			}()
		}
		for i := range cells {
			idx <- i
		}
		close(idx)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	} else {
		for i := range cells {
			if err := runCell(i); err != nil {
				return nil, err
			}
		}
	}
	g.Duration = time.Since(t0)

	// Reference: FCFS with EASY backfilling.
	for i := range g.Cells {
		if g.Cells[i].Order == sched.OrderFCFS && g.Cells[i].Start == sched.StartEASY {
			g.Ref = &g.Cells[i]
			break
		}
	}
	if g.Ref != nil && g.Ref.Value != 0 {
		for i := range g.Cells {
			g.Cells[i].Pct = (g.Cells[i].Value - g.Ref.Value) / g.Ref.Value * 100
		}
	}
	return g, nil
}

// Cell returns the cell for (order, start), or nil.
func (g *Grid) Cell(o sched.OrderName, s sched.StartName) *Cell {
	for i := range g.Cells {
		if g.Cells[i].Order == o && g.Cells[i].Start == s {
			return &g.Cells[i]
		}
	}
	return nil
}
